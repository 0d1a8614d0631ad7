"""vcause benchmark: ingest, query-heavy and query-point workloads.

Run from the repository root:

    python3 perfbench/run.py --workload query-heavy --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. The line before it
records the run's settings, sizes and deterministic counts. A traced run
also writes its spans to perfbench/out/. README.md next to this file
describes the workloads and defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("ingest", "query-heavy", "query-point")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vcause" / "__init__.py").is_file():
        print(f"perfbench: no vcause sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    trace = bool(args.trace)
    if args.workload == "ingest":
        result = workloads.run_ingest(args.seed, args.seconds, trace)
    else:
        result = workloads.run_query(args.workload, args.seed, args.seconds, trace)

    info = dict(result.info)
    info.update(
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
    )
    if result.tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        result.tracer.write(path)
        info["spans_file"] = str(path.relative_to(HERE.parent))
        info["spans"] = len(result.tracer.spans)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
