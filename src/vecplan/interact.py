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
one per interaction stage (`ad.decoder_block`, which encodes the stage's key
positions itself), the command embedding and the head (`ad.mlp_head`, which
encodes the status row itself).

What is checked when:
- once a parameter layout (`_pack`, `extend`), by its first forward: each
  layer's shapes against each other (`network_layers`), a ShapeError naming
  the tensor that breaks its layer's chain;
- once a parameter version: that the parameters are finite (by the exit of
  the write scope that started the version, or else by its first forward);
- on every forward: the scene's input rows, each checked 2-D and finite once
  (the agent and map rows and the command row, entered as constants with
  `Tape.constant`, each stage's key positions and the status row), and
  each record's operands against its layer's widths and its tape.

Parameters are written only inside `InteractionParams.writing()`, which
lends writable views and revokes them when it closes, and each write starts
a new parameter version.  What a forward needs of the parameter values
alone, that they are finite and each stage's encoding of the ego's origin
row with its vjp, the first forward of a version derives and the later ones
reuse; a forward inside an open write scope derives it afresh.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

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
# each interaction stage's positional encoder
_POSITION_ENCODER = {"agent": "pe1", "map": "pe2"}
# the ego's position, the origin: the query row of every stage, read-only
# since every encoding's vjp reads it
_EGO_ROW = np.zeros((1, 2))
_EGO_ROW.setflags(write=False)


@dataclass(frozen=True)
class NetworkLayers:
    """The network's parameters as the operands its records take, each
    layer's shapes checked once (`network_layers`)."""

    agent_enc: ad.Perceptron
    map_enc: ad.Perceptron
    ego_query: Tensor
    stages: dict[str, ad.DecoderStage]  # by stage name, `_POSITION_ENCODER`'s keys
    cmd_embed: Tensor
    head: ad.Head


def _names(prefix: str, parts: tuple[str, ...] = _PERCEPTRON) -> list[str]:
    return [f"{prefix}.{part}" for part in parts]


def network_layers(p: Mapping[str, Tensor], config: InteractionConfig) -> NetworkLayers:
    """The layers of the network over the tensors `p` by name (a `Leaves`
    set's, or leaves of one tape): a ShapeError names a tensor whose shape
    breaks its layer's chain."""

    def layer(build, names, *extra):
        return build(*[p[n] for n in names], *extra, names=names)

    stages = {}
    for stage, pe in _POSITION_ENCODER.items():
        block = f"{stage}_block"
        names = _names(pe) + _names(block, _ATTENTION) + _names(f"{block}.ffn")
        stages[stage] = layer(ad.DecoderStage, names, config.n_heads)
    head = _names("status_enc") + _names("head.l1")[:2] + _names("head", ("w2", "b2", "w3", "b3"))
    return NetworkLayers(layer(ad.Perceptron, _names("agent_enc")),
                         layer(ad.Perceptron, _names("map_enc")), p["ego_query"], stages,
                         p["cmd_embed"], layer(ad.Head, head))


def _mlp_shapes(d_in: int, d_hidden: int, d_out: int, prefix: str):
    # biases share the layer's fan_in bound; zero biases would leave the
    # (0, 0) ego position exactly on the relu kink
    w1, b1, w2, b2 = _names(prefix)
    return [
        (w1, (d_in, d_hidden), d_in),
        (b1, (1, d_hidden), d_in),
        (w2, (d_hidden, d_out), d_hidden),
        (b2, (1, d_out), d_hidden),
    ]


def _block_shapes(d: int, prefix: str):
    shapes = [(name, (d, d), d) for name in _names(prefix, _ATTENTION)]
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


class _Lent(Mapping):
    """A write scope's `tensors`: each lookup lends a new writable view of
    the tensor, recorded so that the scope makes it read-only when it
    closes."""

    def __init__(self, views: Mapping[str, np.ndarray], lent: list[np.ndarray]):
        self._views, self._lent = views, lent

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views[name].view()
        self._lent.append(view)
        return view

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


class InteractionParams:
    """Named parameter arrays for the interaction network, held in one
    contiguous float64 vector.

    `flat` holds every parameter, tensor after tensor in the order of
    `tensors`, a read-only mapping from each name to a reshaped view of
    `flat`; assigning a new array to a name raises, since it would leave
    `flat` stale.  Both are read-only but inside a `writing()` scope, which
    lends writable views of the same memory and revokes them when it closes:
    a write goes there, and its scope's exit starts a new parameter version,
    as `extend` does.  `leaves` holds the read-only views as an
    `autodiff.Leaves` set, built once a layout, on which `forward_plan`
    opens each tape; it sees every write.  The first forward of a layout
    builds the network's layers over it (`network_layers`), and the first
    of a version derives the data that depends on the parameter values
    alone (`_derive`); later forwards reuse both.  `extend` rebuilds the
    vector, so views taken before it no longer alias the parameters.
    """

    def __init__(self, config: InteractionConfig, tensors: Mapping[str, np.ndarray]):
        self.config = config
        self._open = False
        self._pack(tensors)

    def _pack(self, tensors: Mapping[str, np.ndarray]) -> None:
        arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in tensors.items()}
        buffer = np.concatenate([a.reshape(-1) for a in arrays.values()] or [np.zeros(0)])
        views = {}
        read_only = {}
        offset = 0
        for name, arr in arrays.items():
            if arr.ndim != 2:
                raise ShapeError(f"parameter {name} must be 2-D, got shape {arr.shape}")
            views[name] = buffer[offset : offset + arr.size].reshape(arr.shape)
            read_only[name] = views[name].view()
            read_only[name].flags.writeable = False
            offset += arr.size
        flat = buffer.view()
        flat.flags.writeable = False
        # never handed out: a scope lends views of these
        self._writable = (buffer, MappingProxyType(views))
        self._read_only = (flat, MappingProxyType(read_only))
        self.flat, self.tensors = self._read_only
        self.leaves = ad.Leaves(read_only)
        self._layers = None  # `network_layers` over `leaves`, once a forward made them
        self._new_version()

    def _new_version(self) -> None:
        self._finite = False  # whether these values are known to be finite
        self._derived = None  # `_derive`'s, once a forward outside a scope made it

    @contextlib.contextmanager
    def writing(self):
        """The scope in which `flat` and `tensors` are writable: it lends a
        writable view as `flat`, and one for each `tensors` lookup, and makes
        every view it lent read-only when it closes, so a write through a
        kept one raises (a view taken of a lent view is not lent, and stays
        writable).  Its exit starts a new parameter version and, unless its
        body raised, checks every parameter finite: a ShapeError names the
        first tensor that is not.  The next forward then scans no
        parameter."""
        if self._open:
            raise RuntimeError("parameters are already open for writing")
        self._open = True
        self._new_version()
        buffer, views = self._writable
        lent = [buffer.view()]
        self.flat, self.tensors = lent[0], _Lent(views, lent)
        try:
            yield
        finally:
            for view in lent:
                view.flags.writeable = False
            self.flat, self.tensors = self._read_only
            self._open = False
            self._new_version()
        flat = self.flat
        if np.count_nonzero(np.isfinite(flat)) != flat.size:
            name = next(n for n, a in self.tensors.items() if not np.isfinite(a).all())
            raise ShapeError(f"non-finite parameter {name}")
        self._finite = True

    def _derive(self) -> tuple[NetworkLayers, dict[str, tuple[np.ndarray, Callable]]]:
        """What a forward needs of the parameters alone: a check that they
        are finite, unless the write that started this version made it, the
        network's layers, built by the first forward of this layout, and
        each stage's positional encoding of the ego's origin row with its
        vjp, as `ad.decoder_block` takes it.  Kept for the later forwards of
        this version, unless a write scope is open."""
        flat = self.flat
        if not self._finite and np.count_nonzero(np.isfinite(flat)) != flat.size:
            raise ShapeError("non-finite values in tensor")
        layers = self._layers
        if layers is None:
            layers = self._layers = network_layers(self.leaves.tensors, self.config)
        encodings = {}
        for name, stage in layers.stages.items():
            value, vjp = ad._mlp(_EGO_ROW, *stage.encoder.arrays, False)
            value.setflags(write=False)
            encodings[name] = (value, vjp)
        derived = (layers, encodings)
        if not self._open:
            self._finite, self._derived = True, derived
        return derived

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


def encode_queries(scenario: Scenario, layers: NetworkLayers, tape: Tape,
                   rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> QueryFeatures:
    """Embed agents and map elements into query rows.

    Agents embed (position, heading, speed from the best mode, confidence);
    map elements embed (class one-hot, centroid, first-segment direction).
    Empty lists yield zero-row matrices that downstream blocks skip over.
    `rows` are the scene's `scene_features`, where the caller holds them.
    """
    agent_rows, map_rows, centroids = scene_features(scenario) if rows is None else rows
    queries = []  # a loop, where a comprehension would cost a forward a call
    for rows, encoder in ((agent_rows, layers.agent_enc), (map_rows, layers.map_enc)):
        queries.append(ad.mlp(tape.constant(rows), encoder) if len(rows)
                       else tape.constant(np.zeros((0, encoder.d_out))))
    agent_q, map_q = queries
    return QueryFeatures(agent_q, map_q, agent_rows[:, :2] / POSITION_SCALE, centroids)


def forward_plan(scenario: Scenario, params: InteractionParams,
                 rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> ForwardResult:
    """Run the full interaction pipeline and return the plan plus its tape.
    `rows` are the scene's `scene_features`, where the caller holds them
    already: training builds each training scene's once for the run.  The
    network's layers and the parameters' own data
    (`InteractionParams._derive`) come from the first forward of their
    layout and version."""
    config = params.config
    if scenario.t_future != config.t_future:
        raise ConfigError(
            f"scenario horizon {scenario.t_future} does not match model t_future "
            f"{config.t_future}"
        )
    derived = params._derived
    if derived is None:
        derived = params._derive()
    layers, encodings = derived
    tape = Tape(params.leaves)

    features = encode_queries(scenario, layers, tape, rows)
    attention: dict[str, list[np.ndarray]] = {}

    ego_q = layers.ego_query
    stages = (
        ("agent", config.use_agent_interaction, features.agent_queries, features.agent_positions),
        ("map", config.use_map_interaction, features.map_queries, features.map_positions),
    )
    q_after = []  # the ego query after each stage
    for name, used, keys, positions in stages:
        if used:
            # the ego query attends over the keys, which are also the values,
            # each position encoded by the stage's perceptron, the ego's once
            # a parameter version
            ego_q, attention[name] = ad.decoder_block(
                ego_q, encodings[name], keys, positions * POSITION_SCALE, keys,
                layers.stages[name],
            )
        q_after.append(ego_q)

    ego = scenario.ego
    status = np.array([[ego.velocity * SPEED_SCALE, ego.acceleration * ACCEL_SCALE,
                        ego.steering_angle * STEER_SCALE]])
    one_hot = np.zeros((1, 3))
    one_hot[0, COMMAND_INDEX[ego.command]] = 1.0
    cmd_embed = ad.matmul(tape.constant(one_hot), layers.cmd_embed)

    # the head decodes the concatenated planning feature into 2*T_f coordinates
    plan_node = ad.mlp_head(q_after, status, cmd_embed, layers.head, OUTPUT_SCALE)
    plan = PlanTrajectory(plan_node.data.reshape(config.t_future, 2))
    return ForwardResult(plan, tape, plan_node, params.leaves.tensors, features, attention)


def plan_gradient_seed(grad_waypoints: np.ndarray) -> np.ndarray:
    """Reshape a (T_f, 2) waypoint gradient into the plan node's (1, 2*T_f)."""
    return np.asarray(grad_waypoints, dtype=np.float64).reshape(1, -1)
