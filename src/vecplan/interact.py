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

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import CheckpointError, ConfigError, ShapeError
from .scene import Command, MapClass, PackedScene, PlanTrajectory, Scenario, best_mode

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


def _mlp_shapes(d_in: int, d_hidden: int, d_out: int, prefix: str):
    # biases share the layer's fan_in bound; zero biases would leave the
    # (0, 0) ego position exactly on the relu kink
    return [
        (f"{prefix}.w1", (d_in, d_hidden), d_in),
        (f"{prefix}.b1", (1, d_hidden), d_in),
        (f"{prefix}.w2", (d_hidden, d_out), d_hidden),
        (f"{prefix}.b2", (1, d_out), d_hidden),
    ]


def _block_shapes(d: int, prefix: str):
    shapes = [(f"{prefix}.{n}", (d, d), d) for n in ("wq", "wk", "wv", "wo")]
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
    leave `flat` stale.  `extend` rebuilds both, so views taken before it no
    longer alias the parameters.
    """

    def __init__(self, config: InteractionConfig, tensors: Mapping[str, np.ndarray]):
        self.config = config
        self._pack(tensors)

    def _pack(self, tensors: Mapping[str, np.ndarray]) -> None:
        arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in tensors.items()}
        self.flat = np.concatenate([a.reshape(-1) for a in arrays.values()] or [np.zeros(0)])
        views = {}
        offset = 0
        for name, arr in arrays.items():
            views[name] = self.flat[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size
        self.tensors = MappingProxyType(views)

    @classmethod
    def initialize(cls, config: InteractionConfig, seed: int) -> "InteractionParams":
        """Seeded init: every tensor uniform in +-1/sqrt(fan_in) of its layer."""
        params = cls(config, {})
        params.extend(parameter_shapes(config), seed)
        return params

    def copy(self) -> "InteractionParams":
        return InteractionParams(self.config, self.tensors)

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
    ego_position: np.ndarray  # (1, 2)


@dataclass
class ForwardResult:
    plan: PlanTrajectory
    tape: Tape
    plan_node: Tensor  # (1, 2*T_f), row-major (x1, y1, x2, y2, ...)
    params: dict[str, Tensor]  # tape leaves by parameter name
    features: QueryFeatures
    attention: dict[str, list[np.ndarray]] = field(default_factory=dict)


def _mlp(x: Tensor, p: dict[str, Tensor], prefix: str) -> Tensor:
    return ad.mlp(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"], p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def _agent_features(scenario: Scenario) -> np.ndarray:
    rows = np.zeros((len(scenario.agents), AGENT_FEATURE_DIM))
    dt = scenario.horizon_dt
    for i, agent in enumerate(scenario.agents):
        track = best_mode(agent)
        step = track[0] - agent.position
        speed = math.hypot(step[0], step[1]) / dt
        rows[i] = (
            agent.position.x * POSITION_SCALE,
            agent.position.y * POSITION_SCALE,
            math.cos(agent.heading),
            math.sin(agent.heading),
            speed * SPEED_SCALE,
            agent.confidence,
        )
    return rows


def _map_features(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    kinds = [MapClass.LANE_DIVIDER, MapClass.ROAD_BOUNDARY, MapClass.PEDESTRIAN_CROSSING]
    rows = np.zeros((len(scenario.map), MAP_FEATURE_DIM))
    centroids = np.zeros((len(scenario.map), 2))
    for i, mv in enumerate(scenario.map):
        xy = mv.points.xy
        centroid = xy.mean(axis=0)
        centroids[i] = centroid
        direction = np.zeros(2)
        for a, b in zip(xy[:-1], xy[1:]):
            d = b - a
            n = math.hypot(d[0], d[1])
            if n > 0.0:
                direction = d / n
                break
        rows[i, kinds.index(mv.kind)] = 1.0
        rows[i, 3:5] = centroid * POSITION_SCALE
        rows[i, 5:7] = direction
    return rows, centroids


def scene_features(scene: Scenario | PackedScene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The network's input rows of the whole scene: agent rows, map rows and
    map centroids.  A packed scene holds them; a plain one builds them now."""
    if isinstance(scene, PackedScene):
        return scene.features
    return _agent_features(scene), *_map_features(scene)


def encode_queries(
    scene: Scenario | PackedScene, p: dict[str, Tensor], tape: Tape
) -> QueryFeatures:
    """Embed agents and map elements into query rows.

    Agents embed (position, heading, speed from the best mode, confidence);
    map elements embed (class one-hot, centroid, first-segment direction).
    Empty lists yield zero-row matrices that downstream blocks skip over.
    """
    agent_rows, map_rows, centroids = scene_features(scene)
    agent_q = (
        _mlp(tape.leaf(agent_rows), p, "agent_enc")
        if len(agent_rows)
        else tape.leaf(np.zeros((0, p["agent_enc.w2"].shape[1])))
    )
    map_q = (
        _mlp(tape.leaf(map_rows), p, "map_enc")
        if len(map_rows)
        else tape.leaf(np.zeros((0, p["map_enc.w2"].shape[1])))
    )
    return QueryFeatures(
        agent_queries=agent_q,
        map_queries=map_q,
        agent_positions=agent_rows[:, :2] / POSITION_SCALE,
        map_positions=centroids,
        ego_position=np.zeros((1, 2)),
    )


def decoder_block(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    q_pos: Tensor,
    k_pos: Tensor,
    p: dict[str, Tensor],
    prefix: str,
    n_heads: int,
) -> tuple[Tensor, list[np.ndarray]]:
    """One cross-attention decoder block.

    Scaled dot-product attention of (q + q_pos) over (k + k_pos) with values
    v, output projection and residual, then a feed-forward sublayer with
    residual.  With zero-row keys the attention sublayer is skipped and only
    the feed-forward (with residual) applies.  Returns the output and the
    per-head attention weight matrices.
    """
    d = q.shape[1]
    if k.shape[1] != d or v.shape[1] != d:
        raise ConfigError(f"decoder_block width mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    attn_weights: list[np.ndarray] = []
    if k.shape[0] == 0:
        x = q
    else:
        qh = ad.matmul(ad.add(q, q_pos), p[f"{prefix}.wq"])
        kh = ad.matmul(ad.add(k, k_pos), p[f"{prefix}.wk"])
        vh = ad.matmul(v, p[f"{prefix}.wv"])
        d_head = d // n_heads
        scale = 1.0 / math.sqrt(d_head)
        head_outs = []
        for h in range(n_heads):
            lo, hi = h * d_head, (h + 1) * d_head
            logits = ad.scalar_mul(
                ad.matmul(ad.slice_cols(qh, lo, hi), ad.transpose(ad.slice_cols(kh, lo, hi))),
                scale,
            )
            weights = ad.softmax_rows(logits)
            attn_weights.append(weights.data)
            head_outs.append(ad.matmul(weights, ad.slice_cols(vh, lo, hi)))
        attended = head_outs[0] if n_heads == 1 else ad.concat_cols(head_outs)
        x = ad.add(q, ad.matmul(attended, p[f"{prefix}.wo"]))
    out = ad.add(x, _mlp(x, p, f"{prefix}.ffn"))
    return out, attn_weights


def _status_row(scenario: Scenario) -> np.ndarray:
    ego = scenario.ego
    return np.array(
        [[ego.velocity * SPEED_SCALE, ego.acceleration * ACCEL_SCALE, ego.steering_angle * STEER_SCALE]]
    )


def plan_head(
    q_agent: Tensor,
    q_map: Tensor,
    status_embed: Tensor,
    cmd_embed: Tensor,
    p: dict[str, Tensor],
) -> Tensor:
    """Decode the concatenated planning feature into 2*T_f coordinates."""
    feat = ad.concat_cols([q_agent, q_map, status_embed, cmd_embed])
    h1 = ad.relu(ad.add_bias_row(ad.matmul(feat, p["head.l1.w1"]), p["head.l1.b1"]))
    out = ad.mlp(h1, p["head.w2"], p["head.b2"], p["head.w3"], p["head.b3"])
    return ad.scalar_mul(out, OUTPUT_SCALE)


def forward_plan(scene: Scenario | PackedScene, params: InteractionParams) -> ForwardResult:
    """Run the full interaction pipeline and return the plan plus its tape."""
    scenario = scene.scenario if isinstance(scene, PackedScene) else scene
    config = params.config
    if scenario.t_future != config.t_future:
        raise ConfigError(
            f"scenario horizon {scenario.t_future} does not match model t_future "
            f"{config.t_future}"
        )
    if not np.all(np.isfinite(params.flat)):
        raise ShapeError("non-finite values in tensor")
    tape = Tape()
    p = {name: tape.param(arr) for name, arr in params.tensors.items()}

    features = encode_queries(scene, p, tape)
    attention: dict[str, list[np.ndarray]] = {}

    ego_q = p["ego_query"]
    if config.use_agent_interaction:
        q_pos = _mlp(tape.leaf(features.ego_position * POSITION_SCALE), p, "pe1")
        k_pos = (
            _mlp(tape.leaf(features.agent_positions * POSITION_SCALE), p, "pe1")
            if features.agent_positions.shape[0]
            else tape.leaf(np.zeros((0, config.d_model)))
        )
        ego_q, attn = decoder_block(
            ego_q, features.agent_queries, features.agent_queries, q_pos, k_pos,
            p, "agent_block", config.n_heads,
        )
        attention["agent"] = attn
    q_after_agents = ego_q
    if config.use_map_interaction:
        q_pos = _mlp(tape.leaf(features.ego_position * POSITION_SCALE), p, "pe2")
        k_pos = (
            _mlp(tape.leaf(features.map_positions * POSITION_SCALE), p, "pe2")
            if features.map_positions.shape[0]
            else tape.leaf(np.zeros((0, config.d_model)))
        )
        ego_q, attn = decoder_block(
            ego_q, features.map_queries, features.map_queries, q_pos, k_pos,
            p, "map_block", config.n_heads,
        )
        attention["map"] = attn
    q_after_map = ego_q

    status_embed = _mlp(tape.leaf(_status_row(scenario)), p, "status_enc")
    one_hot = np.zeros((1, 3))
    one_hot[0, COMMAND_INDEX[scenario.ego.command]] = 1.0
    cmd_embed = ad.matmul(tape.leaf(one_hot), p["cmd_embed"])

    plan_node = plan_head(q_after_agents, q_after_map, status_embed, cmd_embed, p)
    waypoints = plan_node.data.reshape(config.t_future, 2)
    return ForwardResult(
        plan=PlanTrajectory(waypoints),
        tape=tape,
        plan_node=plan_node,
        params=p,
        features=features,
        attention=attention,
    )


def plan_gradient_seed(grad_waypoints: np.ndarray) -> np.ndarray:
    """Reshape a (T_f, 2) waypoint gradient into the plan node's (1, 2*T_f)."""
    return np.asarray(grad_waypoints, dtype=np.float64).reshape(1, -1)
