"""Run the benchmark over several seeds and summarise each metric.

    python3 sfabench/sweep.py --workload large-edgefeat --seeds 0-9 --trace 0 \
        --write sfabench/reference/large-edgefeat.json

Runs ``run.py`` once per seed, one process at a time, from the repository
root, with the run length from ``BENCHMARK.json``. Prints, per metric, the
median, the quartiles and their distance as a share of the median (the
spread); ``--write`` stores that summary as a reference file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "values": values}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, help="store the summary as JSON here")
    args = parser.parse_args()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, "sfabench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = summarise(results)
    for name, s in sorted(summary.items()):
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:36s} median {s['median']:12.4f} {s['unit']:6s} spread {spread}")
    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "trace": args.trace,
            "run_seconds": seconds,
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": summary}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
