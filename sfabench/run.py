"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 sfabench/run.py --workload triangle-small --seed 0 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout; the run fails if it is not there. With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer
ones. Run outputs go to ``sfabench/out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One process, one BLAS thread (no more than nproc), set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def import_program():
    """Put the checkout's ``src`` first on the path and import the program."""
    sys.path.insert(0, str(ROOT / "src"))
    import sfanas
    if Path(sfanas.__file__).resolve().parent != ROOT / "src" / "sfanas":
        raise ImportError(f"sfanas imported from {sfanas.__file__}, not {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import pipeline
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    result = pipeline.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), out).execute()
    line = json.dumps(result, sort_keys=True)
    (out / "result.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
