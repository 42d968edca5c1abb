"""The benchmark's workloads.

Each workload makes its inputs from the workload seed (``setup``), then runs
timed items over them: a ``train()`` call, a pass over an evaluation set, or
one scene's closed-loop rollout.  A pass runs every item once.  Items time
their work on the pacer's clock and call its ``hook()`` between pieces of
work, outside the timed calls, so that the calibration slices run in step
with the work (see pace.py).  Every item returns one output record per
operation (an epoch, a scenario or a tick), which the runner checks against
the committed references and against the first time it saw that record.

The loop is closed with one caller: each call returns before the next is
made, in one thread.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from pace import Pacer
from vecplan import interact, learning, metrics, scene, simulator

# An output element passes when |got - want| <= ABS_TOL + REL_TOL * |want|.
# Integers (epoch and tick numbers, collision and overstep flags) must match
# exactly.  The margin admits a rewrite that sums in another order; it does
# not admit a changed algorithm.
REL_TOL = 1e-6
ABS_TOL = 1e-9


@dataclass
class ItemResult:
    seconds: float  # work time of the timed calls, calibration slices excluded
    work: int  # scenario-steps, scenarios or ticks completed
    latencies: list[float]  # seconds per latency sample
    ops: list[list]  # one output record per operation
    summary: Optional[list] = None  # item-level outputs all its ops depend on
    plan_calls: list[int] = field(default_factory=list)  # probe count per replan


def scene_seeds(seed: int, salt: int, count: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence((seed, salt)).generate_state(count)]


def finite(record) -> bool:
    return all(math.isfinite(v) for v in record)


class Train:
    """A scaled-down criterion-7 run: default configs but for size and epochs.

    Criterion 7 trains 60 epochs over 512 scenarios and validates on 64.  This
    keeps its 8:1 train-to-validation ratio and scales the epochs down less
    than the scenarios, so scene generation stays a small share of the time.
    The 32 training scenes average out most of the seed-to-seed variation in
    agent count, which sets the cost of a step.
    """

    name = "train"
    op = "epoch"
    throughput_name = "train.scenario_steps_per_s"
    latency_name = "train.epoch_ms"
    config = {"train_scenarios": 32, "val_scenarios": 4, "epochs": 12}
    fields = [f.name for f in dataclasses.fields(learning.EpochStats)]

    def setup(self, seed: int):
        return learning.TrainConfig(seed=seed, **self.config), scene.GeneratorConfig()

    def item_count(self, inputs) -> int:
        return 1

    def op_count(self, inputs, index: int) -> int:
        return inputs[0].epochs

    def run_item(self, inputs, index: int, pacer: Pacer, probe=None) -> ItemResult:
        train_config, gen_config = inputs
        marks = []

        def progress(stats):
            marks.append((pacer.clock(), stats))
            pacer.hook()

        start = pacer.clock()
        learning.train(train_config, gen_config, progress=progress)
        seconds = pacer.clock() - start
        # epoch 0 also generates the sets and initialises the model, so only
        # later epochs are latency samples
        ends = [start] + [t for t, _ in marks]
        epochs = [b - a for a, b in zip(ends, ends[1:])]
        ops = [[getattr(stats, f) for f in self.fields] for _, stats in marks]
        work = train_config.train_scenarios * len(marks)
        return ItemResult(seconds, work, epochs[1:], ops)

    def op_valid(self, record, inputs) -> bool:
        stats = dict(zip(self.fields, record))
        w = inputs[0].weights
        weighted = (
            w.imitation * stats["loss_imitation"] + w.collision * stats["loss_collision"]
            + w.boundary * stats["loss_boundary"] + w.direction * stats["loss_direction"]
            + w.map * stats["loss_map"] + w.motion * stats["loss_motion"]
        )
        return (
            finite(record)
            and abs(stats["loss_total"] - weighted) <= 1e-9 * max(1.0, abs(weighted))
            and 0.0 <= stats["val_collision_rate"] <= 100.0
        )

    def summary_valid(self, summary) -> bool:
        return True


class EvaluateDense:
    """Open-loop evaluation of a fixed-seed model on dense traffic.

    128 scenes, because the cost of a scene varies enough that with 64 the
    seed alone moved the throughput by about 5% (interquartile range over ten
    seeds)."""

    name = "evaluate_dense"
    op = "scenario"
    throughput_name = "evaluate.scenarios_per_s"
    latency_name = "evaluate.forward_ms"
    config = {"scenarios": 128, "agent_count_range": [8, 12], "param_seed": 0}

    def setup(self, seed: int):
        gen_config = scene.GeneratorConfig(
            agent_count_range=tuple(self.config["agent_count_range"])
        )
        scenarios = [
            scene.generate_scenario(s, gen_config)
            for s in scene_seeds(seed, 1, self.config["scenarios"])
        ]
        params = interact.InteractionParams.initialize(
            interact.InteractionConfig(t_future=gen_config.t_future),
            seed=self.config["param_seed"],
        )
        return scenarios, params

    def item_count(self, inputs) -> int:
        return 1

    def op_count(self, inputs, index: int) -> int:
        return len(inputs[0])

    def run_item(self, inputs, index: int, pacer: Pacer, probe=None) -> ItemResult:
        scenarios, params = inputs
        plans = []
        latencies = []
        start = pacer.clock()
        for s in scenarios:
            t0 = pacer.clock()
            plans.append(interact.forward_plan(s, params).plan)
            latencies.append(pacer.clock() - t0)
            pacer.hook()
        result = metrics.plan_metrics(scenarios, plans)
        end = pacer.clock()
        # a plan's checksum: its sum and a position-weighted sum
        weights = np.arange(1, plans[0].waypoints.size + 1, dtype=np.float64)
        ops = [
            [float(p.waypoints.sum()), float(p.waypoints.reshape(-1) @ weights)]
            for p in plans
        ]
        summary = [*result.l2.values, *result.collision.values, result.boundary_overstep_rate]
        return ItemResult(end - start, len(scenarios), latencies, ops, summary)

    def op_valid(self, record, inputs) -> bool:
        return finite(record)

    def summary_valid(self, summary) -> bool:
        l2, rates = summary[:3], summary[3:]
        return finite(summary) and min(l2) >= 0.0 and all(0.0 <= r <= 100.0 for r in rates)


class TimedPlanner:
    """Pass-through planner that times each replan and, given a probe, records
    how far the probe's count moved during it.  The pacer's slices run before
    a replan is timed."""

    def __init__(self, inner, pacer: Pacer, probe: Optional[Callable[[], int]] = None):
        self.inner = inner
        self.pacer = pacer
        self.probe = probe
        self.starts: list[float] = []
        self.times: list[float] = []
        self.probe_counts: list[int] = []

    def plan(self, scenario):
        self.pacer.hook()
        before = self.probe() if self.probe is not None else 0
        start = self.pacer.clock()
        plan = self.inner.plan(scenario)
        self.starts.append(start)
        self.times.append(self.pacer.clock() - start)
        if self.probe is not None:
            self.probe_counts.append(self.probe() - before)
        return plan


class RefineRollout:
    """Closed-loop rollouts with the learning-free refine planner."""

    name = "refine_rollout"
    op = "tick"
    throughput_name = "rollout.ticks_per_s"
    latency_name = "rollout.replan_ms"
    config = {"scenes": 2, "refine_steps": 60}

    def setup(self, seed: int):
        return [scene.generate_scenario(s) for s in scene_seeds(seed, 2, self.config["scenes"])]

    def item_count(self, inputs) -> int:
        return len(inputs)

    def op_count(self, inputs, index: int) -> int:
        return inputs[index].t_future

    def run_item(self, inputs, index: int, pacer: Pacer, probe=None) -> ItemResult:
        scenario = inputs[index]
        planner = TimedPlanner(
            simulator.RefinePlanner(steps=self.config["refine_steps"]), pacer, probe
        )
        start = pacer.clock()
        log = simulator.run_closed_loop(scenario, planner, scenario.t_future)
        end = pacer.clock()
        ops = [
            [
                r.tick, r.ego_position.x, r.ego_position.y, r.ego_heading,
                int(r.collision), int(r.boundary_overstep),
                r.losses["collision"], r.losses["boundary"],
                r.losses["direction"], r.losses["imitation"],
            ]
            for r in log.records
        ]
        return ItemResult(
            end - start, len(log.records), planner.times, ops,
            plan_calls=planner.probe_counts,
        )

    def op_valid(self, record, inputs) -> bool:
        return finite(record) and min(record[6:]) >= 0.0

    def summary_valid(self, summary) -> bool:
        return True


WORKLOADS = {w.name: w for w in (Train(), EvaluateDense(), RefineRollout())}


def close(got, want) -> bool:
    """Elementwise comparison of an output record with its reference."""
    if want is None or got is None:
        return want is got
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if isinstance(w, int):
            if g != w:
                return False
        elif not (math.isfinite(g) and abs(g - w) <= ABS_TOL + REL_TOL * abs(w)):
            return False
    return True
