"""The tape's bits.

The network's forward pass and its backward sweep are pinned by the sha256
digests below: of every plan and every `Gradients.flat`, for one probe seed,
on the first 32 scenes of the benchmark's `evaluate_dense` seeds 0 and 1 and
on an agent-free and a map-free scene, and of the final parameters and every
`EpochStats` of small training runs.  A change to how the tape records or
sweeps may not change one bit of either.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from _support import scene_of_kind

from vecplan.interact import InteractionConfig, InteractionParams, forward_plan
from vecplan.learning import TrainConfig, train
from vecplan.scene import GeneratorConfig, generate_scenario

PROBE_SEED = 7

# sha256 of (every plan's waypoints, every flat gradient), per scene set
FORWARD_DIGESTS = {
    "dense_0": (
        "b136cfd44a752cae800b69ed667a73750d7ee209ee89bf285aa0ff3e14795913",
        "f9c58f49b611d10f465731565ce208e620b854275184cc648a70fb57a32fb918",
    ),
    "dense_1": (
        "dea78f4a541320dc0ede585ed54b23f0358f33fc7610438776826235d29a6111",
        "44147855142a2b963ae5e38c59b9e7e0e813e6fb8d0de7cd417e0e8958b639e0",
    ),
    "edge": (
        "f00770e2fe33e7528ca9525882588e9b59f1fe79b63cde62646f6160ef3cadb7",
        "2940ff551f5f133892afd85008db623963b75d4ab973b1b57042183153722fce",
    ),
}

# sha256 of (the final parameter vector, every epoch's stats), per run
TRAIN_DIGESTS = {
    "seed_0": (
        "3e71353b81898fa3b959eb310eeba86f769eed339a7fccfe4c71c3671ce54c9a",
        "4e26f960f7d9f7d7a641d93e9cf431ea032b5aef1fa94718b43d5321b54f2c2f",
    ),
    "seed_1": (
        "4fa7c26033802510de9a9a2d9904fa3077d425e69d8e8449a1f6c39209a4eb86",
        "b924bb62eb21b471b0ab0bd9c82a31e6d73ad83361015fca1a20f1bab55f244a",
    ),
    "seed_0_aux": (
        "992010928260bc63617e9ab344320f32e89dec43a3c950424accc215fc09da7e",
        "4aabcb1f0755636716f0c658b2e50093bd4d5d96765dd57729a49cec56c51f96",
    ),
}

TRAIN_RUNS = {
    "seed_0": TrainConfig(seed=0, train_scenarios=6, val_scenarios=2, epochs=3),
    "seed_1": TrainConfig(seed=1, train_scenarios=6, val_scenarios=2, epochs=3),
    "seed_0_aux": TrainConfig(seed=0, train_scenarios=4, val_scenarios=2, epochs=2,
                              enable_aux_heads=True),
}


def dense_scenes(seed: int, count: int = 32):
    """The first `count` scenes of an `evaluate_dense` benchmark seed."""
    seeds = np.random.SeedSequence((seed, 1)).generate_state(128)[:count]
    config = GeneratorConfig(agent_count_range=(8, 12))
    return [generate_scenario(int(s), config) for s in seeds]


def scene_set(name: str):
    if name == "edge":
        return [scene_of_kind("agent_free", 3), scene_of_kind("map_free", 3)]
    return dense_scenes(int(name.removeprefix("dense_")))


def forward_digests(scenes) -> tuple[str, str]:
    params = InteractionParams.initialize(InteractionConfig(), 0)
    rng = np.random.default_rng(PROBE_SEED)
    plans, grads = hashlib.sha256(), hashlib.sha256()
    for s in scenes:
        result = forward_plan(s, params)
        probe = rng.standard_normal(result.plan_node.shape)
        plans.update(result.plan.waypoints.tobytes())
        grads.update(result.tape.backward_from([(result.plan_node, probe)]).flat.tobytes())
    return plans.hexdigest(), grads.hexdigest()


def train_digests(config: TrainConfig) -> tuple[str, str]:
    params, log = train(config, GeneratorConfig())
    stats = hashlib.sha256()
    for epoch in log.epochs:
        for value in dataclasses.astuple(epoch):
            stats.update(np.float64(value).tobytes())
    return hashlib.sha256(params.flat.tobytes()).hexdigest(), stats.hexdigest()


@pytest.mark.parametrize("name", sorted(FORWARD_DIGESTS))
def test_plans_and_flat_gradients_are_pinned(name):
    assert forward_digests(scene_set(name)) == FORWARD_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TRAIN_DIGESTS))
def test_training_runs_are_pinned(name):
    assert train_digests(TRAIN_RUNS[name]) == TRAIN_DIGESTS[name]
