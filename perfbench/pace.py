"""Scaling measured times to a reference CPU speed.

The benchmark runs on shared hosts whose cores change speed underneath it:
a neighbour on the sibling hardware thread slows this process by up to 2x,
in bursts under a millisecond whose share changes over seconds and minutes.
Process CPU time slows along with wall time, so another clock does not help.

A ``Pacer`` runs a fixed calibration slice (scalar float arithmetic through
Python calls plus small numpy matrix products, the two kinds of work vecplan
does) in step with the measured work: the workloads call ``hook()`` between
pieces of work, and it runs one slice for every ``PERIOD_S`` of work since
the pacer started.  The slices therefore see the same mix of fast and slow
spells as the work around them.  ``scale(mark)`` is ``REF_SLICE_S`` over the
mean slice time since ``mark``, and a time multiplied by it reads as it would
on a core where one slice takes ``REF_SLICE_S``.  Work is timed on
``clock()``, which stops while slices run.

The slice is part of the benchmark, not of vecplan, so a change to vecplan
moves the scaled times by exactly as much as it moves the work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PERIOD_S = 0.010  # one slice per 10 ms of work: 2-5% of a run
REF_SLICE_S = 0.0006  # the reference speed; about a slice's time on a 2 GHz Xeon vCPU

_A = np.linspace(0.0, 1.0, 48).reshape(6, 8)
_B = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def _segment_distance(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    cx, cy = ax + t * dx, ay + t * dy
    return ((px - cx) ** 2 + (py - cy) ** 2) ** 0.5


def calibration_slice() -> float:
    """A fixed amount of work; its time measures the core's current speed."""
    acc = 0.0
    for i in range(400):
        acc += _segment_distance(0.1 * i, 0.5, 0.0, 0.0, 3.0, 1.0 + 0.01 * i)
    m = _A
    for _ in range(50):
        m = np.tanh(m @ _B) + _A
        acc += float(m.sum())
    return acc


def slice_times(count: int) -> list[float]:
    """Seconds taken by each of ``count`` back-to-back slices."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        calibration_slice()
        times.append(time.perf_counter() - start)
    return times


class Pacer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spent = 0.0  # seconds spent in slices
        self.slices: list[float] = []
        self._origin = time.perf_counter()

    def clock(self) -> float:
        """Seconds of work: perf_counter minus the time spent in slices."""
        return time.perf_counter() - self.spent

    def hook(self) -> None:
        """Run the slices due for the work done since the last call."""
        if not self.enabled:
            return
        due = int((self.clock() - self._origin) / PERIOD_S) - len(self.slices)
        if due > 0:
            self._run(due)

    def _run(self, count: int) -> None:
        times = slice_times(count)
        self.slices += times
        self.spent += sum(times)

    def rebase(self) -> None:
        """Owe no slices for the time since the last hook (it was not work)."""
        self._origin = self.clock() - len(self.slices) * PERIOD_S

    def mark(self) -> int:
        return len(self.slices)

    def scale(self, mark: int) -> float:
        """Reference over measured speed for the slices run since ``mark``
        (work shorter than one period runs one slice to measure it by)."""
        if len(self.slices) == mark:
            self._run(1)
        return REF_SLICE_S / statistics.fmean(self.slices[mark:])
