"""Self-test of the benchmark: traced runs are deterministic.

For each workload, runs ``bench/run.py --trace 1`` twice with the same seed
and checks that

* each traced run reports the same output digest as its untraced twin
  (``run.py`` already marks the run incorrect otherwise),
* both runs report the same digest,
* every function named in ``tracing.LAYERS`` was found and wrapped
  (``run.py`` marks the run incorrect otherwise, too), and
* the per-layer work counts repeat exactly.

Usage, from the root of a checkout:

    python3 bench/selftest.py [--seed 1]

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import PER_PASS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXACT_COUNTS = ("verification.rivals_checked", "logic.rival_evals",
                "structures.enumerated", "games.automorphisms_found",
                "synthesis.formula_nodes", "verification.calls",
                "logic.evaluate_calls", "structures.canonical_key_calls",
                "games.automorphisms_calls", "equivalences.calls",
                "invariants.calls", "synthesis.calls", "items.count")


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(BENCH_DIR), capture_output=True, text=True,
        check=True).stdout.splitlines()
    detail = json.loads(next(line for line in out if line.startswith("detail "))[7:])
    return json.loads(out[-1]), detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in sorted(PER_PASS):
        (first, detail1), (second, detail2) = (traced(workload, args.seed)
                                               for _ in range(2))
        digest1, digest2 = detail1["digest"], detail2["digest"]
        problems = []
        unwrapped = sorted(set(detail1["unwrapped"] + detail2["unwrapped"]))
        if unwrapped:
            problems.append(f"not wrapped: {', '.join(unwrapped)}")
        if not (first["correct"] and second["correct"]):
            problems.append("a run is incorrect (failed item, digest mismatch "
                            "or unwrapped function)")
        if digest1 != digest2:
            problems.append(f"digests differ: {digest1} {digest2}")
        for name in EXACT_COUNTS:
            a, b = (r["metrics"][name]["value"] for r in (first, second))
            if a != b:
                problems.append(f"{name}: {a} != {b}")
        ok = ok and not problems
        print(f"{workload:16s} {'ok' if not problems else 'FAIL'} digest {digest1[:16]}")
        for problem in problems:
            print(f"    {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
