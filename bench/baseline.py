"""Run the benchmark over several seeds and record medians and spreads.

For each workload, runs ``bench/run.py --trace 0`` once per seed and
reports, for every end-to-end metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median. One traced run per
workload, on the first seed, adds the per-layer metrics and layer shares.

Usage, from the root of a checkout:

    python3 bench/baseline.py [--seeds 10] [--first-seed 1] [--out FILE]

With ``--out`` the summary is written as JSON, as bench/baseline.json was
for the commit it names.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import PER_PASS, git_commit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    detail = json.loads(next(line for line in out if line.startswith("detail "))[7:])
    return json.loads(out[-1]), detail


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    record = {"commit": git_commit(), "seeds": seeds, "run_seconds": seconds,
              "workloads": {}}
    for workload in sorted(PER_PASS):
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        if not all(r["correct"] for r, _ in runs):
            print(f"{workload}: a run is incorrect", file=sys.stderr)
            return 1
        metrics = {name: summary([r["metrics"][name]["value"] for r, _ in runs])
                   for name in runs[0][0]["metrics"]}
        entry = {"end_to_end": metrics,
                 "items": [d["items"] for _, d in runs],
                 "python": runs[0][1]["python"], "cpus": runs[0][1]["cpus"]}
        for name, s in metrics.items():
            print(f"{workload:16s} {name:14s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.4f}")
        traced, detail = bench(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["shares"] = detail["shares"]
        print(f"{workload:16s} shares {detail['shares']}")
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
