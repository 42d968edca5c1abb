"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py --seeds 64 [--workload NAME ...]

Runs every item of each workload once, untraced, on seeds 0..N-1 and writes
perfbench/references/<workload>.json.  Regenerate only when the workload
definition changes, from a commit whose outputs are known to be right; a
change to the program must pass against the committed files instead.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def rounded(record):
    """Floats to 10 significant digits, far inside the checking tolerance."""
    if record is None:
        return None
    return [float(f"{v:.10g}") if isinstance(v, float) else v for v in record]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from pace import Pacer

    for name in args.workload or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        seeds = {}
        for seed in range(args.seeds):
            inputs = wl.setup(seed)
            items = []
            for i in range(wl.item_count(inputs)):
                r = wl.run_item(inputs, i, Pacer(enabled=False))
                if not all(wl.op_valid(op, inputs) for op in r.ops) or not wl.summary_valid(
                    r.summary
                ):
                    raise SystemExit(f"{name} seed {seed} item {i}: invalid output")
                items.append({"ops": [rounded(op) for op in r.ops],
                              "summary": rounded(r.summary)})
            seeds[str(seed)] = items
            print(f"{name} seed {seed} done", file=sys.stderr)
        head = json.dumps({"workload": name, "config": wl.config})[:-1]
        body = ",\n".join(
            f"  {json.dumps(s)}: {json.dumps(items, separators=(',', ':'))}"
            for s, items in seeds.items()
        )
        (HERE / "references").mkdir(exist_ok=True)
        with open(HERE / "references" / f"{name}.json", "w") as f:
            f.write(f'{head}, "seeds": {{\n{body}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
