"""Benchmark entry point.

    python3 perfbench/run.py --workload hit-heavy --seed 1 --seconds 40 \
        --trace 0

Run from the repository root.  Prints human-readable lines, then one
JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``).  Exits non-zero
when an output check fails.  Detailed records and the Chrome trace go
to ``perfbench/out/``.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: BLAS thread pools, held at one thread so runs are comparable (the
#: engine's matrices are small; extra BLAS threads only add contention).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy is first imported: OpenBLAS sizes its pool at load.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import bench

    workload = bench.workload_named(args.workload)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result = bench.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"# env {result.record['env']}")
    for note in result.notes:
        print(f"# {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    print(f"# record {bench.write_record(out_dir, result)}")
    print(bench.result_line(result), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
