"""Benchmark runner for fid: seeded workloads, end-to-end metrics, traced runs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload audit-digraphs4 --seed 1 --seconds 30 --trace 0

Every unit of work runs in a fresh child interpreter (``bench/worker.py``)
that imports ``fid`` from ``src/`` of this checkout, so the module-level
caches start empty exactly as they do in each ``fid`` command. One process,
no pools: ``fid --workers 1`` semantics.

A run has two kinds of children:

* set-up children measure ``setup_s``: interpreter start, ``import fid`` and
  the generation of the workload's inputs, then exit;
* pass children do the same set-up and then the timed phase over a slice of
  the seeded item order. Pass 0 always runs to the end of its slice, so its
  outputs, and their digest, depend on the seed alone. Later passes take
  the next slices and stop starting items once ``--seconds`` of timed work
  have been spent.

The seeded order is the workload's corpus shuffled by the seed; pass p
takes the p-th slice of ``PER_PASS`` structures from it, so each pass is a
plain random sample of the corpus.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics. With ``--trace 1`` pass 0 runs twice, untraced and traced, and
``--seconds`` is not used; the
traced child wraps fid's public functions at each module boundary (see
``bench/tracing.py``) and the last line carries the per-layer metrics. The
run is marked incorrect if the two digests differ or a function named in
``tracing.LAYERS`` could not be found to wrap.

The lines before the last one are a human-readable summary and one
``detail`` JSON record (environment, sample counts, ``failed_frac``, the
digest, the p90 where a run has at least 100 items, layer shares). The
record and the traced spans are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_SAMPLES = 4          # set-up-only children before and again after the passes
CHILD_TIMEOUT_S = 170      # a run must end within 180 s
P90_MIN_ITEMS = 100        # p90 has at least ten samples beyond it


# Items per pass. Each makes pass 0 of audit-digraphs4 and synth-graphs7
# take about 25 s on a 2-CPU box, so a 30 s run is pass 0 and a short
# budgeted pass 1. A rank-graphs5 pass ranks the whole corpus, both ways, in
# about 8 s, and later passes rank it again in the same order. Why each
# workload exists is recorded in BENCHMARK.json.
PER_PASS = {"audit-digraphs4": 300, "rank-graphs5": 34, "synth-graphs7": 900}
# Structures in each workload's corpus.
CORPUS = {"audit-digraphs4": 3044, "rank-graphs5": 34, "synth-graphs7": 1044}


def item_order(workload: str, seed: int, count: int) -> list:
    """The first `count` items of the seed's order: the corpus indices in a
    seeded shuffle, repeated if a run outlasts the corpus. For rank-graphs5
    an item is an (index, alternations) pair, each structure ranked both
    without a switch budget and with one alternation."""
    order = list(range(CORPUS[workload]))
    random.Random(f"{workload}/{seed}").shuffle(order)
    items: list = []
    while len(items) < count:
        for index in order:
            if workload == "rank-graphs5":
                items.extend(([index, None], [index, 1]))
            else:
                items.append(index)
    return items[:count]


def pass_size(workload: str) -> int:
    return PER_PASS[workload] * (2 if workload == "rank-graphs5" else 1)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class ChildFailed(RuntimeError):
    pass


def run_child(spec: dict, timeout: float = CHILD_TIMEOUT_S) -> tuple[float, dict]:
    """Start one worker, feed it its spec, wait for it to end. Returns the
    spawn time (monotonic clock, shared by all processes on the host) and
    the worker's result record."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER], cwd=ROOT, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"worker exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited with {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"worker printed no result:\n{err.strip()}")
    return started, json.loads(lines[-1])


def setup_samples(workload: str) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        started, res = run_child({"workload": workload, "setup_only": True})
        samples.append(res["setup_done"] - started)
    return samples


def untraced_run(workload: str, seed: int, seconds: float) -> dict:
    """Set-up children before and after the passes, so that setup_s, the
    median of all set-ups, spans the run rather than its first second."""
    setup = setup_samples(workload)
    passes = []
    timed_s = 0.0
    offset = 0
    while not passes or timed_s < seconds:
        items = item_order(workload, seed, offset + pass_size(workload))[offset:]
        child = {"workload": workload, "items": items,
                 "budget_s": None if not passes else seconds - timed_s}
        started, res = run_child(child)
        setup.append(res["setup_done"] - started)
        passes.append(res)
        timed_s += res["timed_s"]
        offset += len(res["latencies_s"])
    setup += setup_samples(workload)
    return {"setup": setup, "passes": passes, "timed_s": timed_s}


def traced_run(workload: str, seed: int) -> dict:
    items = item_order(workload, seed, pass_size(workload))
    _, plain = run_child({"workload": workload, "items": items})
    _, traced = run_child({"workload": workload, "items": items, "trace": True,
                           "spans_path": os.path.join(
                               OUT_DIR, f"spans-{workload}-s{seed}.jsonl.gz")})
    return {"plain": plain, "traced": traced}


def end_to_end(run: dict) -> tuple[dict, dict]:
    latencies = [t for p in run["passes"] for t in p["latencies_s"]]
    failures = [f for p in run["passes"] for f in p["failures"]]
    attempted = len(latencies)
    metrics = {
        "setup_s": (statistics.median(run["setup"]), "s"),
        "items_per_s": (attempted / run["timed_s"], "1/s"),
        "item_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (max(p["peak_rss_kb"] for p in run["passes"]) / 1024, "MB"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
    }
    detail = {
        "items": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
        "passes": len(run["passes"]),
        "timed_s": run["timed_s"],
        "setup_samples_s": run["setup"],
        "digest": run["passes"][0]["digest"],
        "pass0_items": len(run["passes"][0]["latencies_s"]),
        "caches_at_start": run["passes"][0]["caches_at_start"],
    }
    if attempted >= P90_MIN_ITEMS:
        detail["item_ms.p90"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return metrics, detail


def per_layer(run: dict) -> tuple[dict, dict]:
    plain, traced = run["plain"], run["traced"]
    rate_plain = len(plain["latencies_s"]) / plain["timed_s"]
    rate_traced = len(traced["latencies_s"]) / traced["timed_s"]
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics["trace.items_per_s_untraced"] = (rate_plain, "1/s")
    metrics["trace.items_per_s_traced"] = (rate_traced, "1/s")
    metrics["trace.overhead_frac"] = (1 - rate_traced / rate_plain, "ratio")
    failures = plain["failures"] + traced["failures"]
    detail = {
        "items": len(plain["latencies_s"]) + len(traced["latencies_s"]),
        "failed": len(failures),
        "failures": failures[:10],
        "digest": plain["digest"],
        "digest_traced": traced["digest"],
        "caches_at_start": {**plain["caches_at_start"], **{
            k: v for k, v in traced["caches_at_start"].items() if v}},
        "shares": traced["shares"],
        "unwrapped": traced["unwrapped"],
        "spans": traced["spans"],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PER_PASS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fid", "__init__.py")):
        print(f"no fid sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
    }
    try:
        if args.trace:
            metrics, detail = per_layer(traced_run(args.workload, args.seed))
            correct = (detail["digest"] == detail["digest_traced"]
                       and not detail["unwrapped"])
        else:
            metrics, detail = end_to_end(
                untraced_run(args.workload, args.seed, args.seconds))
            correct = True
        correct = correct and detail["failed"] == 0 and not any(
            detail["caches_at_start"].values())
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    detail = {**env, **detail, "correct": correct}
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump({"detail": detail, "metrics": metrics}, handle, indent=1)
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:14.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": detail["items"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
