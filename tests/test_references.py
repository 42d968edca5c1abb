"""The benchmark's committed reference outputs, replayed for seed 0 of each
workload, for seeds 1-7 of the refine rollouts and for seeds 1-3 of the
dense open-loop evaluation and of training.

perfbench/run.py checks every operation of a workload against
perfbench/references/<workload>.json.  This runs one pass of each workload
through the same checker, so that an output drift fails the tests and not
only a benchmark run.  The references are read, never written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # the benchmark's modules import each other by these names
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _replay(monkeypatch, name, seed):
    """Run one pass of a workload's seed through the benchmark's checker."""
    pace = _load(monkeypatch, "pace", PERFBENCH / "pace.py")
    workloads = _load(monkeypatch, "workloads", PERFBENCH / "workloads.py")
    run = _load(monkeypatch, "perfbench_run", PERFBENCH / "run.py")
    workload = workloads.WORKLOADS[name]
    reference = run.load_reference(workload, seed)
    assert reference is not None
    inputs = workload.setup(seed)
    checker = run.Checker(workload, inputs, reference)
    for index in range(workload.item_count(inputs)):
        run.run_item(workload, inputs, index, checker, pace.Pacer(enabled=False))
    assert checker.attempted > 0
    assert checker.failed == 0, checker.reasons


@pytest.mark.parametrize("name", ["train", "evaluate_dense", "refine_rollout"])
def test_seed_zero_matches_the_references(monkeypatch, name):
    _replay(monkeypatch, name, 0)


@pytest.mark.parametrize("seed", range(1, 8))
def test_refine_rollout_matches_the_references(monkeypatch, seed):
    # the refine planner is the path the constraint and geometry kernels
    # serve; seed 0 runs above
    _replay(monkeypatch, "refine_rollout", seed)


@pytest.mark.parametrize("seed", range(1, 4))
def test_evaluate_dense_matches_the_references(monkeypatch, seed):
    # the open-loop metrics over 128 dense scenes, their flags bit for bit;
    # seed 0 runs above
    _replay(monkeypatch, "evaluate_dense", seed)


@pytest.mark.parametrize("seed", range(1, 4))
def test_train_matches_the_references(monkeypatch, seed):
    # every epoch's losses and validation metrics, through the tape's forward,
    # backward and flat gradient and AdamW; seed 0 runs above
    _replay(monkeypatch, "train", seed)
