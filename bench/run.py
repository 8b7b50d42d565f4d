"""sfrec benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload train-cluster --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; the
line before it carries the environment stamp and sample counts.  The full
record (and, for traced runs, every span) lands in ``.bench_out/``.

The run is one process.  BLAS is pinned to one thread before numpy loads,
so the load never exceeds one core, whatever ``nproc`` is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget for the repeated timed body")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import measure
        import workloads
    except ImportError as err:
        print(f"cannot import the library from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = measure.run(workload, args.seed, args.seconds, bool(args.trace), ROOT, ROOT / ".bench_out")
    print(json.dumps({key: record[key] for key in ("workload", "environment", "samples")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
