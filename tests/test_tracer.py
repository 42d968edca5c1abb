"""The benchmark's tracer must find every function it traces.

perfbench/tracer.py wraps vecplan functions by name; renaming or deleting one
would otherwise only surface when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _load_tracer(monkeypatch):
    return _load(monkeypatch, "perfbench_tracer", PERFBENCH / "tracer.py")


def test_tracer_installs_and_uninstalls_on_vecplan(monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    spans = tracer_mod.vecplan_spans()
    originals = {s.name: vars(s.owner)[s.attr] for s in spans}
    tracer = tracer_mod.Tracer(spans)
    tracer.install()
    try:
        from vecplan import geometry

        assert all(hasattr(vars(s.owner)[s.attr], "__perfbench_original__") for s in spans)
        pls = geometry.PolylineSet.of_scenes([[[(1.0, -1.0), (1.0, 1.0)]]], [[True]])
        geometry.closest_polyline_within([geometry.Point2(0.0, 0.0)], pls, 2.0)
        assert tracer.calls("geometry.closest_polyline_within") == 1
        assert tracer.calls("geometry.point_polyline_distance") == 1
    finally:
        tracer.uninstall()
    assert {s.name: vars(s.owner)[s.attr] for s in spans} == originals


def test_overlap_span_counts_truthy_sweeps(monkeypatch):
    # the span counts truthy returns with `if out:`, which raises on an array,
    # and the benchmark needs it to fire in scene generation
    tracer_mod = _load_tracer(monkeypatch)
    tracer = tracer_mod.Tracer(tracer_mod.vecplan_spans())
    tracer.install()
    try:
        from vecplan import scene

        scene.generate_scenario(3, scene.GeneratorConfig(agent_count_range=(8, 12)))
        calls, _, _, truthy = tracer.snapshot()["geometry.oriented_rect_overlap"]
    finally:
        tracer.uninstall()
    assert calls > 0
    assert truthy <= calls


def test_agent_pose_track_span_fires_in_metrics_and_rollouts(monkeypatch):
    # the benchmark expects this span on evaluate_dense (through plan_metrics)
    # and on refine_rollout (through run_closed_loop): one call per block of
    # scenes in the metrics; one per rollout, for the views' agent poses,
    # which `collision_ticks` then reads to score the executed track
    tracer_mod = _load_tracer(monkeypatch)
    tracer = tracer_mod.Tracer(tracer_mod.vecplan_spans())
    tracer.install()
    try:
        from vecplan import metrics, scene, simulator

        scenarios = [scene.generate_scenario(seed) for seed in range(metrics.BLOCK_SCENES + 1)]
        assert all(len(s.agent_xy) for s in scenarios[:2])
        plans = [simulator.constant_velocity_plan(s) for s in scenarios]
        tracer.reset()
        metrics.plan_metrics(scenarios, plans)
        from_metrics = tracer.calls("metrics.agent_pose_track")
        tracer.reset()
        simulator.run_closed_loop(scenarios[0], simulator.ConstantVelocityPlanner(), 2)
        from_rollout = tracer.calls("metrics.agent_pose_track")
    finally:
        tracer.uninstall()
    assert from_metrics == 2  # a full block and a block of one
    assert from_rollout == 1


def _tiny_train():
    from vecplan import learning, scene

    config = learning.TrainConfig(epochs=1, train_scenarios=2, val_scenarios=1)
    learning.train(config, scene.GeneratorConfig())


def _tiny_evaluate_dense():
    from vecplan import interact, metrics, scene

    config = scene.GeneratorConfig(agent_count_range=(8, 12))
    scenarios = [scene.generate_scenario(seed, config) for seed in (0, 1)]
    params = interact.InteractionParams.initialize(
        interact.InteractionConfig(t_future=config.t_future), seed=0
    )
    metrics.plan_metrics(scenarios, [interact.forward_plan(s, params).plan for s in scenarios])


def _tiny_refine_rollout():
    from vecplan import scene, simulator

    simulator.run_closed_loop(scene.generate_scenario(0), simulator.RefinePlanner(), 1)


def test_tiny_workloads_fire_every_expected_span(monkeypatch):
    # the calls of each benchmark workload, scaled down, must reach every
    # span the benchmark's self-test expects of that workload
    tracer_mod = _load_tracer(monkeypatch)
    run_mod = _load(monkeypatch, "perfbench_run", PERFBENCH / "run.py")
    tiny = {
        "train": _tiny_train,
        "evaluate_dense": _tiny_evaluate_dense,
        "refine_rollout": _tiny_refine_rollout,
    }
    tracer = tracer_mod.Tracer(tracer_mod.vecplan_spans())
    fired = {}
    tracer.install()
    try:
        for name, work in tiny.items():
            tracer.reset()
            work()
            fired[name] = {span for span, stats in tracer.snapshot().items() if stats[0]}
    finally:
        tracer.uninstall()
    for name in tiny:
        missing = set(run_mod.expected_spans(name)) - fired[name]
        assert not missing, f"{name}: {sorted(missing)}"


def test_refine_replan_searches_the_map_once_per_evaluation(monkeypatch):
    # a refine replan evaluates its own terms once per iterate, each with one
    # map search for boundaries and dividers alike, and never the training
    # objective; the closed-loop tick's loss log and a training epoch still
    # fire every span the benchmark expects of refine_rollout and train
    tracer_mod = _load_tracer(monkeypatch)
    run_mod = _load(monkeypatch, "perfbench_run", PERFBENCH / "run.py")
    from vecplan import scene, simulator

    planner = simulator.RefinePlanner()
    tracer = tracer_mod.Tracer(tracer_mod.vecplan_spans())

    def fired():
        return {span for span, stats in tracer.snapshot().items() if stats[0]}

    tracer.install()
    try:
        scenario = scene.generate_scenario(0)
        made = fired()
        tracer.reset()
        planner.plan(scenario)
        replan = {span: stats[0] for span, stats in tracer.snapshot().items() if stats[0]}
        simulator.run_closed_loop(scenario, planner, 1)
        rollout = made | fired()
        tracer.reset()
        _tiny_train()
        train = fired()
    finally:
        tracer.uninstall()
    evaluations = planner.steps + 1
    for span in ("constraints.collision_loss", "constraints.boundary_loss",
                 "constraints.direction_loss", "simulator.smoothness_loss",
                 "geometry.closest_polyline_within", "geometry.point_polyline_distance",
                 "geometry.closest_point_on_segment"):
        assert replan[span] == evaluations, span
    assert "constraints.total_planning_loss" not in replan
    assert "constraints.imitation_loss" not in replan
    assert replan["simulator.refine_trajectory"] == 1
    assert 0 < replan["geometry.angular_difference"] <= evaluations
    missing = set(run_mod.expected_spans("refine_rollout")) - rollout
    assert not missing, sorted(missing)
    missing = set(run_mod.expected_spans("train")) - train
    assert not missing, sorted(missing)
