"""Benchmark of the supportq DQN planner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mlp-pipeline --seed 1 --seconds 40 --trace 0

Workloads: mlp-pipeline and seq-pipeline (see perfbench/README.md).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json, from untraced rounds; with --trace 1 they are its
per-layer ones, from spans recorded around calls into supportq.  Each run also
writes perfbench/out/<workload>-seed<seed>-trace<t>.json with the machine, the
thread settings, every round and every check.

Exits 2 without a result when the checkout has no supportq sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread per process, fixed before numpy loads in this process;
# every supportq command inherits it through the environment.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "numpy" in sys.modules:
        print("perfbench: numpy loaded before the thread settings were fixed", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # Every process of the run shares one core, the highest-numbered one allowed, so the
    # scheduler does not move work between cores whose speed differs on a shared host.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "supportq" / "__init__.py").is_file():
        print(f"perfbench: no supportq sources at {src}", file=sys.stderr)
        return 2
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(here)]

    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    bench = workloads.Bench(workload, args.seed, args.seconds, bool(args.trace), root, THREAD_ENV)
    record = bench.run(json.loads(spec_path.read_text()))
    print(f"record: perfbench/out/{bench.tag}.json")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
