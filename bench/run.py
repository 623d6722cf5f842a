"""qslab benchmark entry point.

    python3 bench/run.py --workload mc-ring --seed 1 --seconds 25 --trace 0

Runs one workload (mc-ring, mc-line or exact-ring; see bench/README.md) from
the root of a checkout.  Prints one JSON line with the full record (machine,
per-operation times, fingerprints, oracle verdicts), then, as the last line,
the result: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
Exits with 2, printing nothing to stdout, when the qslab sources are absent.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# one client, one process: pin BLAS to one thread before numpy loads, so the
# process is single-threaded and its CPU time is its time to result
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qslab" / "__init__.py").is_file():
        print(f"qslab sources not found under {ROOT / 'src'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    from reference import reference_s
    # a set-up probe times the reference loop before anything is imported
    before = reference_s() if args.setup_probe else 0.0
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed).build()
        ready = time.process_time() - before
        print(f"ready {ready!r} {before!r} {reference_s()!r}", flush=True)
        return 0

    import harness
    summary, detail = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    # numpy scalars in fingerprints print as their Python values
    print(json.dumps(detail, default=lambda obj: obj.item()))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
