"""vecplan benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics untraced.  With
``--trace 1`` it alternates untraced and traced passes over the same inputs
and reports the per-layer metrics of the traced passes plus the tracing
overhead.  Every operation's output is checked; the last line of standard
output is the JSON result, and the line before it a JSON report with the
environment, the metrics under their workload names and the self-tests.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train", "evaluate_dense", "refine_rollout")
SETUP_REPEATS = 9
SETUP_SLICES = 25  # calibration slices on each side of a timed set-up
MIN_PASSES = 3  # repeats per item, at least, for its median time
MIN_TRACED_PAIRS = 2  # the exact-count self-test compares two traced passes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def load_reference(workload, seed: int):
    """The committed outputs for this seed, or None if it is not shipped."""
    with open(REFERENCES / f"{workload.name}.json") as f:
        ref = json.load(f)
    if ref["config"] != workload.config:
        raise SystemExit(
            f"error: {workload.name} references were made with config {ref['config']}, "
            f"the workload now uses {workload.config}; regenerate them"
        )
    return ref["seeds"].get(str(seed))


class Checker:
    """Counts operations and those whose output is wrong.

    An operation fails if it raised, if its output is non-finite or breaks an
    invariant, if it differs from the committed reference by more than the
    tolerance, or if it differs at all from the first output this run saw for
    it (the inputs of every repeat are the same).
    """

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.first: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def _fail(self, reason: str, count: int) -> None:
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def raised(self, index: int) -> None:
        count = self.workload.op_count(self.inputs, index)
        self.attempted += count
        self._fail("exception", count)

    def check(self, index: int, result) -> None:
        from workloads import close  # importable once main() has set sys.path

        wl = self.workload
        expected = wl.op_count(self.inputs, index)
        self.attempted += expected
        if len(result.ops) < expected:
            self._fail("missing output", expected - len(result.ops))
        ref = self.reference[index] if self.reference is not None else None
        first = self.first.setdefault(index, (result.ops, result.summary))
        summary_ok = wl.summary_valid(result.summary) and result.summary == first[1]
        if ref is not None:
            summary_ok = summary_ok and close(result.summary, ref["summary"])
        for k, record in enumerate(result.ops[:expected]):
            if not summary_ok:
                self._fail("set-level output", 1)
            elif not wl.op_valid(record, self.inputs):
                self._fail("non-finite or invariant", 1)
            elif ref is not None and not close(record, ref["ops"][k]):
                self._fail("reference mismatch", 1)
            elif k >= len(first[0]) or record != first[0][k]:
                self._fail("differs from first repeat", 1)


def run_item(workload, inputs, index, checker, pacer, probe=None):
    """One timed item; an exception is reported and counted, never fatal."""
    try:
        result = workload.run_item(inputs, index, pacer, probe)
    except Exception:
        if "exception" not in checker.reasons:
            traceback.print_exc(file=sys.stderr)
        checker.raised(index)
        return None
    checker.check(index, result)
    return result


def decile(samples, k):
    """The k-th decile of two or more samples (5 is the median, 9 the p90)."""
    return statistics.quantiles(samples, n=10, method="inclusive")[k - 1]


def setup_seconds(workload, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh process: as measured, and scaled to the
    reference speed by calibration slices run just before and after it.

    Imports cannot be repeated inside one process, so each repeat spawns one.
    It imports numpy before its clock starts, then times importing vecplan
    (through the workloads module) and making the workload's inputs: the
    interpreter's and numpy's own start-up are not vecplan's work.
    """
    code = ("import statistics, sys, time; sys.path[:0] = sys.argv[3:]; import pace; "
            f"before = pace.slice_times({SETUP_SLICES}); "
            "start = time.perf_counter(); import workloads; "
            "workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2])); "
            "took = time.perf_counter() - start; "
            f"after = pace.slice_times({SETUP_SLICES}); "
            "print(took, took * pace.REF_SLICE_S / statistics.fmean(before + after))")
    out = subprocess.run(
        [sys.executable, "-c", code, workload.name, str(seed), str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, scaled = map(float, out.stdout.split())
    return raw, scaled


def measure_untraced(workload, seed, seconds, reference):
    import resource

    from pace import REF_SLICE_S, Pacer

    inputs = workload.setup(seed)
    checker = Checker(workload, inputs, reference)
    pacer = Pacer()
    setups = []
    n_items = workload.item_count(inputs)
    repeats = {i: [] for i in range(n_items)}  # item -> [(result, scale)]
    begin = time.perf_counter()
    k = 0
    # whole passes only, so every item has as many repeats
    while k % n_items or k < MIN_PASSES * n_items or time.perf_counter() - begin < seconds:
        index = k % n_items
        # the host's speed changes in phases of seconds, so the set-up
        # repeats are spread evenly over the run, between passes
        while (index == 0 and len(setups) < SETUP_REPEATS
               and time.perf_counter() - begin >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(setup_seconds(workload, seed))
            pacer.rebase()
        mark = pacer.mark()
        result = run_item(workload, inputs, index, checker, pacer)
        pacer.hook()
        if result is not None:
            repeats[index].append((result, pacer.scale(mark)))
        k += 1
    elapsed = time.perf_counter() - begin
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not all(repeats.values()):
        return checker, {}, {}, {}

    # Every time is scaled to the reference core speed by the calibration
    # slices run in step with it (pace.py); the figures as measured are
    # reported next to them, ungated.  An item's time is the median over its
    # repeats, and the throughput is all items' work over the sum of those.
    def item_seconds(f):
        return [statistics.median(f(r, scale) for r, scale in rs) for rs in repeats.values()]

    work = sum(rs[0][0].work for rs in repeats.values())
    throughput = work / sum(item_seconds(lambda r, scale: r.seconds * scale))
    raw_throughput = work / sum(item_seconds(lambda r, scale: r.seconds))
    latencies = [(x * scale * 1000.0, x * 1000.0)
                 for rs in repeats.values() for r, scale in rs for x in r.latencies]
    scaled_lat, raw_lat = [x for x, _ in latencies], [x for _, x in latencies]
    setup_s = statistics.median(scaled for _, scaled in setups)
    lat_p50, lat_p90 = decile(scaled_lat, 5), decile(scaled_lat, 9)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "throughput_per_s": (throughput, "1/s"),
        "op_ms.p50": (lat_p50, "ms"),
    }
    lat = workload.latency_name
    named = {
        "setup_s": {"value": setup_s, "unit": "s", "measured": statistics.median(
            raw for raw, _ in setups), "repeats_s": setups},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        workload.throughput_name: {
            "value": throughput, "unit": "1/s", "measured": raw_throughput,
            "items": n_items, "repeats": len(repeats[0]),
        },
        f"{lat}.p50": {"value": lat_p50, "unit": "ms", "measured": decile(raw_lat, 5),
                       "samples": len(latencies)},
        f"{lat}.p90": {"value": lat_p90, "unit": "ms", "measured": decile(raw_lat, 9),
                       "samples": len(latencies),
                       "samples_beyond": sum(x > lat_p90 for x in scaled_lat)},
    }
    calibration = {
        "reference_slice_ms": REF_SLICE_S * 1000.0,
        "mean_slice_ms": statistics.fmean(pacer.slices) * 1000.0,
        "slices": len(pacer.slices),
        "share_of_run": pacer.spent / elapsed,
    }
    return checker, metrics, named, calibration


def expected_spans(workload_name):
    """Spans each workload must reach at least once when traced."""
    common = ["scene.generate_scenario", "geometry.oriented_rect_overlap",
              "geometry.point_polyline_distance", "geometry.closest_point_on_segment"]
    tape = ["interact.forward_plan", "autodiff.matmul", "metrics.displacement_error",
            "metrics.collision_ticks", "metrics.agent_pose_track"]
    constraints = ["constraints.total_planning_loss", "constraints.collision_loss",
                   "constraints.boundary_loss", "constraints.direction_loss",
                   "constraints.imitation_loss", "geometry.closest_polyline_within",
                   "geometry.angular_difference"]
    return common + {
        "train": tape + constraints + ["autodiff.backward_from", "learning.adamw_step",
                                       "learning.train"],
        "evaluate_dense": tape + ["metrics.plan_metrics", "metrics.boundary_overstep"],
        "refine_rollout": constraints + ["metrics.agent_pose_track", "simulator.step",
                                         "simulator.run_closed_loop",
                                         "simulator.refine_trajectory",
                                         "simulator.smoothness_loss"],
    }[workload_name]


def measure_traced(workload, seed, seconds, reference, layer_names):
    from pace import Pacer
    from tracer import AUTODIFF_OPS, Tracer, vecplan_spans

    tracer = Tracer(vecplan_spans())
    checker = None
    walls = {False: [], True: []}
    outputs = {False: [], True: []}
    snapshots, counts = [], []

    def probe():
        return tracer.calls("constraints.total_planning_loss")

    def one_pass(traced: bool):
        nonlocal checker
        tracer.reset()
        start = time.perf_counter()
        try:
            if traced:
                tracer.install()
            inputs = workload.setup(seed)
            if checker is None:
                checker = Checker(workload, inputs, reference)
            results = [
                run_item(workload, inputs, i, checker, Pacer(enabled=False),
                         probe if traced else None)
                for i in range(workload.item_count(inputs))
            ]
        finally:
            tracer.uninstall()
        walls[traced].append(time.perf_counter() - start)
        outputs[traced].append(
            [None if r is None else (r.ops, r.summary) for r in results]
        )
        if traced:
            snap = tracer.snapshot()
            plan_calls = [c for r in results if r is not None for c in r.plan_calls]
            per_replan = sum(plan_calls) / len(plan_calls) if plan_calls else 0.0
            snapshots.append(snap)
            counts.append(({n: (s[0], s[3]) for n, s in snap.items()}, per_replan))

    begin = time.perf_counter()
    pairs = 0
    while True:
        pair_start = time.perf_counter()
        # alternate which side runs first so drift in machine speed cancels
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            one_pass(traced)
        pairs += 1
        elapsed = time.perf_counter() - begin
        if pairs >= MIN_TRACED_PAIRS and elapsed + (time.perf_counter() - pair_start) > seconds:
            break

    first = snapshots[0]
    fired = {name for name, stat in first.items() if stat[0] > 0}
    missing = [n for n in expected_spans(workload.name) if n not in fired]
    self_tests = {
        "expected_spans_fired": not missing,
        "traced_outputs_equal_untraced": all(
            o == outputs[False][0] for o in outputs[True] + outputs[False]
        ),
        "counts_identical_across_passes": all(c == counts[0] for c in counts),
    }

    def calls(name):
        return first[name][0]

    ops_calls = sum(calls(f"autodiff.{op}") for op in AUTODIFF_OPS)
    forwards = calls("interact.forward_plan")
    overlaps = calls("geometry.oriented_rect_overlap")
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    derived = {
        "autodiff.ops.calls": (ops_calls, "count"),
        "autodiff.ops_per_forward": (ops_calls / forwards if forwards else 0.0, "count"),
        "constraints.total_planning_loss.calls_per_replan": (counts[0][1], "count"),
        "geometry.oriented_rect_overlap.hit_ratio": (
            first["geometry.oriented_rect_overlap"][3] / overlaps if overlaps else 0.0, "ratio"
        ),
        "trace.overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
    }
    # any other name is <span>.<stat>, taken per traced pass: calls are exact
    # counts, busy_ms is inclusive time and self_ms busy time minus the traced
    # spans inside it
    layer = {}
    for name in layer_names:
        span, stat = name.rsplit(".", 1)
        if name in derived:
            layer[name] = derived[name]
        elif stat == "calls":
            layer[name] = (calls(span), "count")
        else:
            column = {"busy_ms": 1, "self_ms": 2}[stat]
            layer[name] = (statistics.median(s[span][column] for s in snapshots) * 1000.0, "ms")

    details = {
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "pass_wall_s": {"untraced": untraced, "traced": traced},
        "missing_spans": missing,
        "per_span": {
            name: {"calls": s[0], "busy_ms": s[1] * 1000.0, "self_ms": s[2] * 1000.0}
            for name, s in first.items() if s[0]
        },
    }
    return checker, layer, self_tests, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vecplan" / "__init__.py").is_file():
        print(f"error: no vecplan sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one BLAS thread: the benchmark's own process only, set before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    reference = load_reference(workload, args.seed)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "reference": "committed" if reference is not None else "none for this seed; "
                     "checked for determinism and invariants only",
        "tolerance": {"rel": workloads.REL_TOL, "abs": workloads.ABS_TOL},
        "environment": environment(args.seed),
    }
    self_tests = {}
    if args.trace:
        with open(ROOT / "BENCHMARK.json") as f:
            layer_names = [m["name"] for m in json.load(f)["per_layer"]]
        checker, metrics, self_tests, report["trace_details"] = measure_traced(
            workload, args.seed, args.seconds, reference, layer_names
        )
        report["self_tests"] = self_tests
    else:
        checker, metrics, report["metrics"], report["calibration"] = measure_untraced(
            workload, args.seed, args.seconds, reference
        )
    report["ops_attempted"] = checker.attempted
    report["ops_failed"] = checker.failed
    report["failures"] = checker.reasons

    for name, entry in report.get("metrics", {}).items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    for name, (value, unit) in metrics.items() if args.trace else ():
        print(f"{name} = {value!r} {unit}")
    print(f"ops_attempted = {checker.attempted} {workload.op}s, ops_failed = {checker.failed}")
    print(json.dumps({"report": report}))
    correct = bool(metrics) and checker.attempted > 0 and checker.failed == 0 and all(
        self_tests.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
