"""Command-line entry point.

Subcommands tie generation, planning, training, simulation, evaluation, and
the ablation sweep into reproducible runs: every command resolves its full
config (file + flag overrides + defaults), echoes it to the output directory,
and writes deterministic artifacts, so re-running with `--check` can verify
byte-identity instead of writing.

Failures exit non-zero with a single machine-parsable line on stderr:
`error:<category>: <message>`.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .autodiff import checkpoint_text
from .constraints import ConstraintParams, LossWeights, total_planning_loss
from .errors import (
    CheckpointError,
    ConfigError,
    ScenarioFormatError,
    SimulationError,
    TrainingDivergedError,
    VecplanError,
)
from .interact import InteractionConfig, InteractionParams
from .learning import TrainConfig, train
from .metrics import (
    AblationArm,
    ablation_report,
    plan_metrics,
)
from .scene import (
    GeneratorConfig,
    Scenario,
    generate_scenario,
    load_scenario,
    scenario_to_json,
)
from .simulator import (
    ConstantVelocityPlanner,
    ExpertPlanner,
    ModelPlanner,
    RefinePlanner,
    ego_to_world,
    run_closed_loop,
)

OUTPUT_ROOT_ENV = "VECPLAN_OUTPUT_ROOT"
PLANNER_CHOICES = ("model", "refine", "constant_velocity", "expert")


class DriftError(VecplanError):
    """--check found outputs differing from what the command recomputes."""


ERROR_CATEGORIES = [
    (ConfigError, "config-parse"),
    (ScenarioFormatError, "schema"),
    (CheckpointError, "checkpoint-mismatch"),
    (TrainingDivergedError, "divergence"),
    (DriftError, "drift"),
    (SimulationError, "simulation"),
    (FileNotFoundError, "missing-file"),
    (VecplanError, "invalid-input"),
]


# ---------------------------------------------------------------------------
# run configuration


def _require_int(value, name: str) -> int:
    """`value` if it is an int; anything else, a float or a bool included, is
    refused rather than cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


_PAIR_ANNOTATIONS = {"tuple[int, int]": "int", "tuple[float, float]": "float"}


def _check_typed(value, annotation: str, name: str) -> None:
    """Refuse a value that does not fit a field declared `int`, `float` or a
    pair of them: an int must be an int (not a float or a bool), a float any
    finite int or float.  Fields of other types are left to their section."""
    if annotation == "int":
        _require_int(value, name)
    elif annotation == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    elif annotation in _PAIR_ANNOTATIONS:
        if not (isinstance(value, tuple) and len(value) == 2):
            raise ConfigError(f"{name} must be a pair, got {value!r}")
        for v in value:
            _check_typed(v, _PAIR_ANNOTATIONS[annotation], name)


@dataclass(frozen=True)
class SimulatorSection:
    ticks: int = 6
    ego_length: float = 4.0
    ego_width: float = 1.85
    planner: str = "refine"
    refine_steps: int = 60
    refine_step_size: float = 0.2

    def __post_init__(self):
        if self.ticks < 1:
            raise ConfigError("simulator.ticks must be >= 1")
        if self.planner not in PLANNER_CHOICES:
            raise ConfigError(f"simulator.planner must be one of {PLANNER_CHOICES}")
        if not (self.ego_length > 0 and self.ego_width > 0):
            raise ConfigError("ego box dims must be positive")
        if self.refine_steps < 0:
            raise ConfigError("simulator.refine_steps must be >= 0")
        if not (self.refine_step_size > 0 and math.isfinite(self.refine_step_size)):
            raise ConfigError("simulator.refine_step_size must be positive and finite")

    @property
    def ego_dims(self) -> tuple[float, float]:
        return (self.ego_length, self.ego_width)


DEFAULT_ABLATION_ARMS = [
    {"name": "full"},
    {
        "name": "no_constraints",
        "collision_constraint": False,
        "boundary_constraint": False,
        "direction_constraint": False,
    },
    {"name": "no_map_inter", "map_interaction": False},
]


@dataclass(frozen=True)
class MetricsSection:
    eval_count: int = 100
    ablation_arms: tuple = tuple(
        tuple(sorted(a.items())) for a in DEFAULT_ABLATION_ARMS
    )

    def __post_init__(self):
        if self.eval_count < 1:
            raise ConfigError("metrics.eval_count must be >= 1")

    def arms(self) -> list[AblationArm]:
        return [AblationArm(**dict(items)) for items in self.ablation_arms]


@dataclass(frozen=True)
class TrainSection:
    epochs: int = 60
    batch_size: int = 1
    learning_rate: float = 2e-4
    weight_decay: float = 0.01
    scheduler: str = "cosine"
    train_scenarios: int = 512
    val_scenarios: int = 64
    enable_aux_heads: bool = False
    shuffle: bool = True


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/default"
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    interact: InteractionConfig = field(default_factory=InteractionConfig)
    train: TrainSection = field(default_factory=TrainSection)
    constraints: ConstraintParams = field(default_factory=ConstraintParams)
    weights: LossWeights = field(default_factory=LossWeights)
    simulator: SimulatorSection = field(default_factory=SimulatorSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            seed=self.seed,
            weights=self.weights,
            **dataclasses.asdict(self.train),
        )


_TUPLE_FIELDS = {
    "curvature_range", "agent_count_range", "speed_range", "agent_speed_range",
    "agent_confidence_range", "map_confidence_range", "perception_range", "ego_dims",
    "lead_gap_slack",
}


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    # every module declares its fields under postponed evaluation, so each
    # type is its annotation string
    annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in annotations:
            raise ConfigError(f"unknown config key: {path}{key}")
        if key in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        _check_typed(value, annotations[key], f"{path}{key}")
        if key == "ablation_arms":
            if not isinstance(value, list):
                raise ConfigError(f"{path}{key} must be a list")
            allowed = {f.name for f in dataclasses.fields(AblationArm)}
            for arm in value:
                if not isinstance(arm, dict):
                    raise ConfigError(f"every ablation arm must be an object, got {arm!r}")
                bad = set(arm) - allowed
                if bad:
                    raise ConfigError(f"unknown ablation arm keys: {sorted(bad)}")
                if "name" not in arm:
                    raise ConfigError("every ablation arm needs a name")
            value = tuple(tuple(sorted(a.items())) for a in value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {path.rstrip('.') or 'config'}: {e}") from e


_SECTIONS = {
    "generator": GeneratorConfig,
    "interact": InteractionConfig,
    "train": TrainSection,
    "constraints": ConstraintParams,
    "weights": LossWeights,
    "simulator": SimulatorSection,
    "metrics": MetricsSection,
}


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    kwargs = {}
    for key, value in data.items():
        if key == "seed":
            kwargs["seed"] = _require_int(value, "seed")
        elif key == "output_dir":
            kwargs["output_dir"] = str(value)
        elif key in _SECTIONS:
            kwargs[key] = _build_section(_SECTIONS[key], value, f"{key}.")
        else:
            raise ConfigError(f"unknown config key: {key}")
    return RunConfig(**kwargs)


def config_to_dict(config: RunConfig) -> dict:
    out = {"seed": config.seed, "output_dir": config.output_dir}
    for key in _SECTIONS:
        section = dataclasses.asdict(getattr(config, key))
        if key == "metrics":
            section["ablation_arms"] = [dict(items) for items in section["ablation_arms"]]
        out[key] = section
    return out


def _parse_override(raw: str) -> tuple[list[str], object]:
    if "=" not in raw:
        raise ConfigError(f"override must look like section.key=value, got {raw!r}")
    key, _, text = raw.partition("=")
    parts = key.strip().split(".")
    if not all(parts):
        raise ConfigError(f"bad override key {key!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    return parts, value


def load_config(
    config_path: Optional[str],
    overrides: Sequence[str],
    out_dir: Optional[str],
    seed: Optional[int],
) -> RunConfig:
    data: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {config_path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{config_path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    for raw in overrides:
        parts, value = _parse_override(raw)
        node = data
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {raw!r} descends into a non-object")
        node[parts[-1]] = value
    if seed is not None:
        data["seed"] = seed
    if out_dir is not None:
        data["output_dir"] = out_dir
    config = config_from_dict(data)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(config.output_dir):
        config = dataclasses.replace(config, output_dir=str(Path(root) / config.output_dir))
    return config


# ---------------------------------------------------------------------------
# output collection and --check verification


class OutputSet:
    """Collects output files as bytes; writes them or verifies byte-identity."""

    def __init__(self, root: Path, check: bool):
        self.root = root
        self.check = check
        self.files: dict[str, bytes] = {}

    def add(self, relpath: str, text: str) -> None:
        self.files[relpath] = text.encode("utf-8")

    def finish(self) -> str:
        if self.check:
            for rel, payload in self.files.items():
                path = self.root / rel
                if not path.exists():
                    raise DriftError(f"missing output file: {path}")
                if path.read_bytes() != payload:
                    raise DriftError(f"output drift in {path}")
            return f"check ok: {len(self.files)} files verified under {self.root}"
        for rel, payload in self.files.items():
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload)
        return f"wrote {len(self.files)} files under {self.root}"


def _json_artifact(payload: dict, name: str) -> str:
    """Artifact JSON text; a NaN or infinity is an error, never written."""
    try:
        return json.dumps(payload, indent=1, allow_nan=False) + "\n"
    except ValueError as e:
        raise VecplanError(f"{name}: {e}") from e


def _echo_config(outputs: OutputSet, config: RunConfig) -> None:
    outputs.add("config.resolved.json", _json_artifact(config_to_dict(config), "resolved config"))


def _resolve_scenario_paths(patterns: Sequence[str]) -> list[Path]:
    paths: list[Path] = []
    for pat in patterns:
        p = Path(pat)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        else:
            hits = sorted(glob.glob(pat))
            if not hits:
                raise FileNotFoundError(f"scenario file not found: {pat}")
            paths.extend(Path(h) for h in hits)
    if not paths:
        raise FileNotFoundError("no scenario files matched")
    return paths


def _build_planner(config: RunConfig, name: Optional[str], checkpoint: Optional[str]):
    planner_name = name or config.simulator.planner
    if planner_name == "model":
        if checkpoint is None:
            raise ConfigError("planner 'model' needs --checkpoint")
        if not Path(checkpoint).exists():
            raise FileNotFoundError(f"checkpoint not found: {checkpoint}")
        params = InteractionParams.load(checkpoint, config.interact)
        return ModelPlanner(params)
    if planner_name == "refine":
        return RefinePlanner(
            params=config.constraints,
            weights=config.weights,
            steps=config.simulator.refine_steps,
            step_size=config.simulator.refine_step_size,
        )
    if planner_name == "constant_velocity":
        return ConstantVelocityPlanner()
    if planner_name == "expert":
        return ExpertPlanner()
    raise ConfigError(f"unknown planner {planner_name!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(config: RunConfig, args, outputs: OutputSet) -> None:
    for i in range(args.count):
        scenario = generate_scenario(config.seed + i, config.generator)
        outputs.add(f"scenarios/scenario_{i:04d}.json", scenario_to_json(scenario) + "\n")


def _plan_report(scenario: Scenario, plan, config: RunConfig) -> str:
    loss = total_planning_loss(plan, scenario, config.constraints, config.weights)
    return _json_artifact(
        {
            "schema_version": 1,
            "waypoints": plan.waypoints.tolist(),
            "loss_total": loss.value,
            "breakdown": loss.breakdown,
        },
        "plan report",
    )


def cmd_plan(config: RunConfig, args, outputs: OutputSet) -> None:
    planner = _build_planner(config, args.planner, args.checkpoint)
    for path in _resolve_scenario_paths(args.scenario):
        scenario = load_scenario(path)
        plan = planner.plan(scenario)
        outputs.add(f"plans/{path.stem}.plan.json", _plan_report(scenario, plan, config))


def cmd_train(config: RunConfig, args, outputs: OutputSet) -> None:
    params, log = train(
        config.train_config(),
        config.generator,
        config.interact,
        config.constraints,
        progress=lambda e: print(
            f"epoch {e.epoch:3d}  loss {e.loss_total:9.4f}  val L2 {e.val_l2_avg:7.3f}  "
            f"val CR {e.val_collision_rate:6.2f}%"
        ),
    )
    outputs.add("checkpoint.txt", checkpoint_text(params.tensors))
    outputs.add("trainlog.csv", log.to_table())


def _trace_table(scenario: Scenario, log) -> str:
    lines = ["tick,entity,entity_id,point_index,x,y,heading"]

    def row(tick, entity, ident, idx, x, y, heading):
        lines.append(
            f"{tick},{entity},{ident},{idx},{x!r},{y!r},{heading!r}"
        )

    for mi, mv in enumerate(scenario.map):
        for pi, p in enumerate(mv.points.points):
            row(0, f"map_{mv.kind.value}", mi, pi, p.x, p.y, 0.0)
    row(0, "ego", 0, 0, scenario.ego.position.x, scenario.ego.position.y, scenario.ego.heading)
    for ai, agent in enumerate(scenario.agents):
        row(0, "agent", ai, 0, agent.position.x, agent.position.y, agent.heading)

    prev_pos = scenario.ego.position
    prev_heading = scenario.ego.heading
    for record in log.records:
        world_plan = ego_to_world(record.plan, prev_pos, prev_heading)
        for pi, p in enumerate(world_plan):
            row(record.tick, "plan", 0, pi, float(p[0]), float(p[1]), 0.0)
        row(
            record.tick, "ego", 0, 0,
            record.ego_position.x, record.ego_position.y, record.ego_heading,
        )
        for ai, (pos, heading) in enumerate(
            zip(record.agent_positions, record.agent_headings)
        ):
            row(record.tick, "agent", ai, 0, pos.x, pos.y, heading)
        prev_pos = record.ego_position
        prev_heading = record.ego_heading
    return "\n".join(lines) + "\n"


def cmd_simulate(config: RunConfig, args, outputs: OutputSet) -> None:
    planner = _build_planner(config, args.planner, args.checkpoint)
    ticks = args.ticks if args.ticks is not None else config.simulator.ticks
    for path in _resolve_scenario_paths(args.scenario):
        scenario = load_scenario(path)
        log = run_closed_loop(
            scenario, planner, ticks,
            ego_dims=config.simulator.ego_dims,
            constraint_params=config.constraints,
        )
        outputs.add(f"rollouts/{path.stem}.rollout.csv", log.to_table())
        outputs.add(f"traces/{path.stem}.trace.csv", _trace_table(scenario, log))


def _metrics_report_text(metrics, count: int) -> str:
    lines = [
        f"{'metric':<16}{'1s':>9}{'2s':>9}{'3s':>9}{'avg':>9}",
        f"{'L2 (m)':<16}"
        + "".join(f"{v:9.4f}" for v in metrics.l2.values)
        + f"{metrics.l2.avg:9.4f}",
        f"{'Collision (%)':<16}"
        + "".join(f"{v:9.4f}" for v in metrics.collision.values)
        + f"{metrics.collision.avg:9.4f}",
        f"Boundary overstep (%): {metrics.boundary_overstep_rate:.4f}",
        f"(open-loop over {count} synthetic scenarios; artifact protocol)",
    ]
    return "\n".join(lines) + "\n"


def _metrics_report_csv(metrics) -> str:
    header = "l2_1s,l2_2s,l2_3s,l2_avg,cr_1s,cr_2s,cr_3s,cr_avg,overstep_rate"
    values = (
        list(metrics.l2.values)
        + [metrics.l2.avg]
        + list(metrics.collision.values)
        + [metrics.collision.avg, metrics.boundary_overstep_rate]
    )
    return header + "\n" + ",".join(repr(float(v)) for v in values) + "\n"


def cmd_evaluate(config: RunConfig, args, outputs: OutputSet) -> None:
    planner = _build_planner(config, args.planner, args.checkpoint)
    if args.scenario:
        scenarios = [load_scenario(p) for p in _resolve_scenario_paths(args.scenario)]
    else:
        count = args.count if args.count is not None else config.metrics.eval_count
        scenarios = [generate_scenario(config.seed + i, config.generator) for i in range(count)]
    plans = [planner.plan(s) for s in scenarios]
    metrics = plan_metrics(scenarios, plans, ego_dims=config.simulator.ego_dims)
    outputs.add("report.csv", _metrics_report_csv(metrics))
    outputs.add("report.txt", _metrics_report_text(metrics, len(scenarios)))


def cmd_ablate(config: RunConfig, args, outputs: OutputSet) -> None:
    report = ablation_report(
        config.metrics.arms(),
        config.train_config(),
        config.generator,
        interact_config=config.interact,
        constraint_params=config.constraints,
        eval_count=args.count if args.count is not None else config.metrics.eval_count,
        ego_dims=config.simulator.ego_dims,
        progress=lambda row: print(
            f"arm {row.arm.name:<18} L2 avg {row.metrics.l2.avg:7.3f}  "
            f"CR avg {row.metrics.collision.avg:6.2f}%  "
            f"collisions@3s {row.collision_count_3s}"
        ),
    )
    outputs.add("ablation.csv", report.to_csv())
    outputs.add("ablation.txt", report.to_text())


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecplan",
        description="Vectorized-scene planning: generate, plan, train, simulate, "
        "evaluate, ablate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="config override, e.g. generator.lane_count=4 (flags win)",
        )
        p.add_argument(
            "--check",
            action="store_true",
            help="recompute outputs and verify byte-identity instead of writing",
        )

    p = sub.add_parser("generate", help="emit seeded scenario files")
    common(p)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("plan", help="plan on scenario files")
    common(p)
    p.add_argument("--scenario", nargs="+", required=True, help="scenario files/dirs/globs")
    p.add_argument("--planner", choices=PLANNER_CHOICES)
    p.add_argument("--checkpoint")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("train", help="train the interaction planner")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("simulate", help="closed-loop rollouts")
    common(p)
    p.add_argument("--scenario", nargs="+", required=True)
    p.add_argument("--planner", choices=PLANNER_CHOICES)
    p.add_argument("--checkpoint")
    p.add_argument("--ticks", type=int)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("evaluate", help="open-loop metric report")
    common(p)
    p.add_argument("--scenario", nargs="*", default=[])
    p.add_argument("--count", type=int, help="generate this many scenarios instead of files")
    p.add_argument("--planner", choices=PLANNER_CHOICES)
    p.add_argument("--checkpoint")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="toggle-sweep report")
    common(p)
    p.add_argument("--count", type=int, help="evaluation scenarios per arm")
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides, args.out, args.seed)
        outputs = OutputSet(Path(config.output_dir), check=args.check)
        _echo_config(outputs, config)
        args.fn(config, args, outputs)
        print(outputs.finish())
        return 0
    except Exception as e:  # noqa: BLE001 - mapped to exit categories below
        for exc_type, category in ERROR_CATEGORIES:
            if isinstance(e, exc_type):
                print(f"error:{category}: {e}", file=sys.stderr)
                return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
