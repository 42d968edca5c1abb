"""The benchmark's tracer must find every function it traces.

perfbench/tracer.py wraps vecplan functions by name; renaming or deleting one
would otherwise only surface when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_vecplan(monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    spans = tracer_mod.vecplan_spans()
    originals = {s.name: vars(s.owner)[s.attr] for s in spans}
    tracer = tracer_mod.Tracer(spans)
    tracer.install()
    try:
        from vecplan import geometry

        assert all(hasattr(vars(s.owner)[s.attr], "__perfbench_original__") for s in spans)
        pls = [geometry.Polyline([(1.0, -1.0), (1.0, 1.0)])]
        geometry.closest_polyline_within(geometry.Point2(0.0, 0.0), pls, 2.0)
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
