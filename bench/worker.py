"""One benchmark child: set up a workload, run its timed phase, report.

Reads a JSON spec on standard input and prints one JSON record on standard
output. Started by ``bench/run.py``; run by hand as

    echo '{"workload": "audit-digraphs4", "items": [0, 1]}' | python3 bench/worker.py

Spec keys: ``workload``; ``setup_only`` (stop after set-up); ``items`` (the
seeded item list); ``budget_s`` (stop starting items once the timed phase
has run this long; absent or null runs every item); ``trace`` and
``spans_path`` (wrap fid's layers and write the spans there).

Set-up is ``import fid`` plus the generation of the workload's inputs; the
timed phase is the work a user of the matching ``fid`` command waits for.
Every item's output is checked between items, off the clock. An item that
raises or fails its check is recorded as a failure and the phase goes on.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_fid():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fid
    if not os.path.abspath(fid.__file__).startswith(os.path.join(ROOT, "src")):
        raise ImportError(f"fid imported from {fid.__file__}, not this checkout")


# Module-level caches that every fid command starts with empty.
CACHES = (("equivalences", "sim_classes"), ("equivalences", "_classes"),
          ("equivalences", "base_decomposition"),
          ("invariants", "_delta_exact_cached"))


def cache_sizes() -> dict:
    sizes = {}
    for module, name in CACHES:
        fn = getattr(sys.modules[f"fid.{module}"], name, None)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            sizes[f"{module}.{name}"] = info().currsize
    return sizes


class Failure(Exception):
    """An item's output failed its check."""


def _check(ok: bool, what: str):
    if not ok:
        raise Failure(what)


# ---------------------------------------------------------------------------
# Workloads. Set-up happens in __init__. `inputs(items)` runs at the start of
# the timed phase and yields (item, argument) pairs; `run(item, argument)`
# does one item's work, the part a user waits for; `check(item, argument,
# result)` raises Failure if the result is wrong and returns the item's
# output for the digest. Checks are not timed.
# ---------------------------------------------------------------------------

class Audit:
    """`fid audit --vocab E/2 --order 4`: audit_record against the full
    rival list, exactly as audit_corpus runs it with one worker."""

    order, corpus, graph_mode = 4, 3044, False

    def __init__(self):
        from fid.structures import parse_vocab_spec
        self.vocab = parse_vocab_spec("E/2")

    def inputs(self, items):
        from fid.structures import enumerate_structures
        self.rivals = list(enumerate_structures(self.vocab, self.order,
                                                self.graph_mode))
        _check(len(self.rivals) == self.corpus,
               f"enumerated {len(self.rivals)} structures, expected {self.corpus}")
        return ((index, self.rivals[index]) for index in items)

    def run(self, index, struct):
        from fid.invariants import DEFAULT_DELTA_CAP
        from fid.structures import _mask_of
        from fid.verification import audit_record
        return audit_record(struct, _mask_of(struct, self.graph_mode),
                            self.graph_mode, DEFAULT_DELTA_CAP, self.rivals)

    def check(self, index, struct, record):
        from fid.invariants import bs_budget
        _check(record["verified"], "not verified")
        _check(record["audits_ok"], "bound audit violated")
        budget = bs_budget(struct.order, struct.vocab.max_arity)
        _check(record["totalQuantifiers"] < budget,
               f"{record['totalQuantifiers']} quantifiers, budget {budget}")
        return record


class Rank:
    """`fid rank [--alternations 1]` on order-5 graphs. The structures are
    the workload's inputs, so they are enumerated during set-up."""

    def __init__(self):
        from fid.structures import GRAPH_VOCAB, enumerate_structures
        self.structs = list(enumerate_structures(GRAPH_VOCAB, 5, True))
        _check(len(self.structs) == 34, "order-5 graph corpus changed size")

    def inputs(self, items):
        self.values = {}
        return ((tuple(item), self.structs[item[0]]) for item in items)

    def run(self, item, struct):
        from fid.games import identification_rank
        return identification_rank(struct, item[1], None, True)

    def check(self, item, struct, value):
        _check(isinstance(value, int), f"rank value {value!r}")
        self.values[item] = value
        plain, alt1 = (self.values.get((item[0], a)) for a in (None, 1))
        if plain is not None and alt1 is not None:
            _check(alt1 >= plain, f"I^1 = {alt1} < I = {plain}")
        return [*item, value]


class Synth:
    """Invariants, bound report and both syntheses on the order-7 graphs the
    seed selects, each formula evaluated on its own structure by the tree
    evaluator. The enumeration generator is consumed in the timed phase,
    between items, so it counts in items_per_s but not in item latency;
    items are therefore taken in enumeration order."""

    def inputs(self, items):
        from fid.structures import GRAPH_VOCAB, enumerate_structures
        wanted = set(items)
        for index, struct in enumerate(enumerate_structures(GRAPH_VOCAB, 7, True)):
            if not wanted:
                return
            if index in wanted:
                wanted.discard(index)
                yield index, struct

    def run(self, index, struct):
        from fid.invariants import DEFAULT_DELTA_CAP, analyze, bound_report
        from fid.logic import evaluate
        from fid.synthesis import synth_auto, synth_graph
        report = analyze(struct, DEFAULT_DELTA_CAP)
        bounds = bound_report(struct, DEFAULT_DELTA_CAP)
        syntheses = [synth_graph(struct, DEFAULT_DELTA_CAP),
                     synth_auto(struct, DEFAULT_DELTA_CAP)]
        holds = [evaluate(struct, s.formula) for s in syntheses]
        return report, bounds, syntheses, holds

    def check(self, index, struct, result):
        from fid.logic import compile_eval, format_formula
        report, bounds, syntheses, holds = result
        _check(not bounds.violations(), "bound report shows violations")
        graph = syntheses[0].metrics
        _check(graph.quantifiers <= struct.order - 1 and graph.universals <= 2,
               f"graph pipeline used {graph}")
        out = [index, report.sigma, report.delta_exact, report.rho]
        for synth, tree in zip(syntheses, holds):
            compiled = compile_eval(synth.formula, struct.vocab)(struct)
            _check(tree and compiled,
                   f"{synth.method} formula: evaluate {tree}, compile_eval {compiled}")
            out += [synth.method, synth.metrics.quantifiers,
                    synth.metrics.universals, format_formula(synth.formula)]
        return out


def make_workload(name: str):
    if name == "audit-digraphs4":
        return Audit()
    if name == "rank-graphs5":
        return Rank()
    if name == "synth-graphs7":
        return Synth()
    raise ValueError(f"unknown workload {name!r}")


def timed_phase(workload, items, budget_s, tracer):
    """Runs the items; returns the phase's wall time without the checks,
    the per-item latencies, the failures and the outputs."""
    clock = time.perf_counter
    latencies, failures, outputs = [], [], []
    check_s = 0.0
    start = clock()
    with tracer.span("bench.pass", "bench"):
        for item, argument in workload.inputs(items):
            if budget_s is not None and clock() - start - check_s >= budget_s:
                break
            t0 = clock()
            output = None
            # One item's failure must not end the run.
            try:
                with tracer.span("bench.item", "bench"):
                    result = workload.run(item, argument)
            except Exception as exc:
                result, error = None, exc
            else:
                error = None
            t1 = clock()
            if error is None:
                try:
                    with tracer.paused(), tracer.span("bench.check", "check"):
                        output = workload.check(item, argument, result)
                except Exception as exc:
                    error = exc
            if error is not None:
                failures.append({"item": item,
                                 "error": f"{type(error).__name__}: {error}"})
            latencies.append(t1 - t0)
            check_s += clock() - t1
            outputs.append(output)
    return clock() - start - check_s, latencies, failures, outputs


def main() -> int:
    spec = json.loads(sys.stdin.read())
    _import_fid()
    from tracing import NullTracer, Tracer
    workload = make_workload(spec["workload"])
    setup_done = time.monotonic()
    if spec.get("setup_only"):
        print(json.dumps({"setup_done": setup_done}))
        return 0

    caches_at_start = cache_sizes()
    tracer = Tracer() if spec.get("trace") else NullTracer()
    tracer.install()
    timed_s, latencies, failures, outputs = timed_phase(
        workload, spec["items"], spec.get("budget_s"), tracer)
    tracer.uninstall()
    digest = hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    record = {
        "setup_done": setup_done,
        "timed_s": timed_s,
        "latencies_s": latencies,
        "failures": failures,
        "digest": digest,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "caches_at_start": caches_at_start,
    }
    if spec.get("trace"):
        record.update(tracer.report(cache_sizes()))
        tracer.write_spans(spec["spans_path"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
