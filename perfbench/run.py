"""dp-tails benchmark: one command per (workload, seed, trace) run.

    python3 perfbench/run.py --workload grid-lr-audited --seed 0 \
        --seconds 30 --trace 0

Run from the root of a checkout that holds `src/dp_tails`. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`. Provenance, per-pass samples, report sha256
digests and gate errors go to `.bench_out/results/`; pass outputs and
spans to `.bench_out/<workload>-trace<t>/`. Exit code 0 means every
correctness check passed; 1 means a check failed; 2 means the run could
not start.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None):
    # BLAS threads are pinned before numpy is first imported; child
    # processes inherit the setting.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "dp_tails" / "__init__.py").is_file():
        print(f"run.py: no src/dp_tails under {root}", file=sys.stderr)
        return 2
    import bench

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_root = root / ".bench_out"
    line, detail = bench.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), root, out_root)
    path = bench.write_detail(out_root, args.workload, args.seed,
                              bool(args.trace), detail)
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True))
    print(f"passes {len(detail['pass_wall_s'])}, failed_frac "
          f"{detail['failed_frac']}, details in {path.relative_to(root)}")
    for error in detail["gate_errors"][:20]:
        print(f"gate: {error}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
