"""Outside-in tracing of vecplan's layers.

Each traced function object is wrapped exactly once, and that one wrapper is
rebound at every place the original is bound: the defining module's globals
(so calls inside a module, such as geometry's own chain, are seen), every
``from .x import f`` binding in the other vecplan modules, and the class
attribute for methods.  Wrapping the bindings separately instead would count
a call once per wrapper it passes through.

Spans are aggregated as they close instead of being stored one by one: a
refine rollout makes about 56k geometry calls per tick, and a record per
span would cost more memory than the workload itself.  A span's self time is
its duration minus the time of the traced spans it directly encloses.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

_ORIGINAL = "__perfbench_original__"

# the public tape operations, summed into autodiff.ops.calls
AUTODIFF_OPS = (
    "matmul", "add", "add_bias_row", "scalar_mul", "relu", "tanh", "softmax_rows",
    "concat_cols", "slice_cols", "transpose", "sum_all", "mean_all", "l1_to_target",
)


@dataclass(frozen=True)
class Span:
    """A function to trace: ``getattr(owner, attr)`` under the name ``name``."""

    name: str
    owner: object  # a module or a class
    attr: str
    count_true: bool = False  # also count calls that return a truthy value


class Tracer:
    """Counts calls and busy/self time of the given spans while installed."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        # name -> [calls, busy seconds, self seconds, truthy returns]
        self.stats: dict[str, list] = {s.name: [0, 0.0, 0.0, 0] for s in spans}
        self._open: list[float] = []  # child time accumulated per open span
        self._rebound: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]

    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(stat) for name, stat in self.stats.items()}

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def _wrap(self, span: Span, fn):
        stat = self.stats[span.name]
        open_spans = self._open
        clock = time.perf_counter
        count_true = span.count_true

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = open_spans.pop()
                stat[0] += 1
                stat[1] += took
                stat[2] += took - children
                if open_spans:
                    open_spans[-1] += took
            if count_true and out:
                stat[3] += 1
            return out

        setattr(traced, _ORIGINAL, fn)
        return traced

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("vecplan.")]
        seen: set[int] = set()
        for span in self.spans:
            original = vars(span.owner)[span.attr]
            if hasattr(original, _ORIGINAL):
                raise RuntimeError(f"{span.name} is already wrapped")
            if id(original) in seen:
                raise RuntimeError(f"{span.name} names a function traced twice")
            seen.add(id(original))
            wrapper = self._wrap(span, original)
            if isinstance(span.owner, type):
                sites = [(span.owner, span.attr)]
            else:
                sites = [
                    (module, key)
                    for module in modules
                    for key, value in vars(module).items()
                    if value is original
                ]
            for owner, key in sites:
                setattr(owner, key, wrapper)
                self._rebound.append((owner, key, original))

    def uninstall(self) -> None:
        while self._rebound:
            owner, key, original = self._rebound.pop()
            setattr(owner, key, original)


def vecplan_spans() -> list[Span]:
    """The public functions of each layer that the benchmark traces."""
    from vecplan import (
        autodiff,
        constraints,
        geometry,
        interact,
        learning,
        metrics,
        scene,
        simulator,
    )

    spans = [Span("scene.generate_scenario", scene, "generate_scenario")]
    for fn in ("point_polyline_distance", "closest_point_on_segment",
               "closest_polyline_within", "angular_difference"):
        spans.append(Span(f"geometry.{fn}", geometry, fn))
    spans.append(Span("geometry.oriented_rect_overlap", geometry, "oriented_rect_overlap",
                      count_true=True))
    for fn in ("total_planning_loss", "collision_loss", "boundary_loss",
               "direction_loss", "imitation_loss"):
        spans.append(Span(f"constraints.{fn}", constraints, fn))
    for op in AUTODIFF_OPS:
        spans.append(Span(f"autodiff.{op}", autodiff, op))
    spans.append(Span("autodiff.backward_from", autodiff.Tape, "backward_from"))
    spans.append(Span("interact.forward_plan", interact, "forward_plan"))
    spans.append(Span("learning.train", learning, "train"))
    spans.append(Span("learning.adamw_step", learning.AdamW, "step"))
    for fn in ("plan_metrics", "collision_ticks", "boundary_overstep",
               "displacement_error", "agent_pose_track"):
        spans.append(Span(f"metrics.{fn}", metrics, fn))
    for fn in ("run_closed_loop", "step", "refine_trajectory", "smoothness_loss"):
        spans.append(Span(f"simulator.{fn}", simulator, fn))
    return spans
