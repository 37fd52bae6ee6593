"""Spans around fid's layers, recorded from outside the package.

`Tracer.install` replaces each public function named in LAYERS, in every
loaded ``fid`` module namespace that holds it, with a wrapper that records a
span: name, layer, parent span, start and end. Function-level imports such
as the ``canonical_key`` that ``identification_rank`` looks up at call time
are covered because the defining module is patched too.

Three functions get special wrappers:

* ``enumerate_structures`` returns a generator; each step of it is a span,
  with the code that iterates it as parent, so enumeration time is counted
  where it is spent.
* ``compile_eval`` returns a callable that verification calls once per
  rival. Those calls are too many to keep one by one, so their count and
  seconds are summed onto the span that made them.
* ``GameSolver.position_rank`` is a method and is patched on the class.

A span's self time is its duration minus the time its child spans and
summed evaluations cover. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time

# The public functions each layer offers the others and the command line.
LAYERS = {
    "structures": ("enumerate_structures", "canonical_key"),
    "equivalences": ("sim_classes", "classes_of", "base_decomposition",
                     "is_base", "transform_e", "fineness", "counting_terms"),
    "invariants": ("analyze", "bound_report", "sigma", "delta_exact",
                   "delta_lower", "best_delta", "rho", "rho_exact",
                   "rho_of_base", "candidate_bases"),
    "logic": ("compile_eval", "evaluate"),
    "synthesis": ("synth_naive_identify", "synth_naive_define", "synth_sigma",
                  "synth_rho", "synth_delta", "synth_auto", "synth_graph"),
    "verification": ("verify_identifies", "verify_defines_up_to"),
    "games": ("automorphisms", "identification_rank", "distinguishing_rank",
              "distinguishing_rank_alt", "GameSolver.position_rank"),
}

# Span fields, in the order they are stored and written.
FIELDS = ("name", "layer", "parent", "start", "end", "evals", "eval_s", "info")
NAME, LAYER, PARENT, START, END, EVALS, EVAL_S, INFO = range(len(FIELDS))


class _Totals:
    """Calls, total and self seconds, and recorded infos of a set of spans."""

    def __init__(self):
        self.calls, self.dur, self.self_s, self.infos = 0, 0.0, 0.0, []

    def add(self, dur: float, self_s: float, info):
        self.calls += 1
        self.dur += dur
        self.self_s += self_s
        if info is not None:
            self.infos.append(info)


class NullTracer:
    """Tracing off: no wrappers, no spans."""

    def install(self):
        pass

    def uninstall(self):
        pass

    def span(self, name: str, layer: str):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.patches: list[tuple[object, str, object, object]] = []
        self.unwrapped: list[str] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, parent, self.clock(), 0.0, 0, 0.0, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][END] = self.clock()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        index = self.open(name, layer)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, name, layer, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                self.spans[index][INFO] = on_result(index, result)
            return result
        return wrapper

    def _wrap_iter(self, name, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            source = iter(fn(*args, **kwargs))
            try:
                while True:
                    index = self.open(name, layer)
                    try:
                        item = next(source)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    self.spans[index][INFO] = 1
                    yield item
            finally:
                close = getattr(source, "close", None)
                if close is not None:
                    close()
        return wrapper

    def _wrap_compile(self, name, layer, fn):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, layer)
            try:
                compiled = fn(*args, **kwargs)
            finally:
                self.close(index)

            def evaluate(*call_args):
                t0 = clock()
                try:
                    return compiled(*call_args)
                finally:
                    caller = spans[stack[-1]]
                    caller[EVALS] += 1
                    caller[EVAL_S] += clock() - t0
            return evaluate
        return wrapper

    def _make_wrapper(self, layer, qualname, fn):
        from fid.logic import node_count
        qualified = f"{layer}.{qualname}"
        name = qualname.rpartition(".")[2]
        if name == "enumerate_structures":
            return self._wrap_iter(qualified, layer, fn)
        if name == "compile_eval":
            return self._wrap_compile(qualified, layer, fn)
        if name.startswith("verify_"):
            return self._wrap_call(qualified, layer, fn,
                                   lambda _, verdict: verdict.rivals_checked)
        if name == "automorphisms":
            return self._wrap_call(qualified, layer, fn, lambda _, auts: len(auts))
        if layer == "synthesis":
            def formula_size(index, result):
                parent = self.spans[index][PARENT]
                nested = parent >= 0 and self.spans[parent][LAYER] == "synthesis"
                if nested or result is None:
                    return None
                return [node_count(result.formula), result.metrics.quantifiers]
            return self._wrap_call(qualified, layer, fn, formula_size)
        return self._wrap_call(qualified, layer, fn)

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "fid" or key.startswith("fid."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"fid.{layer}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.unwrapped.append(f"{layer}.{name}")
                    continue
                wrapper = self._make_wrapper(layer, name, fn)
                holders = [owner] if owner_name else \
                    [m for m in modules if getattr(m, attr, None) is fn]
                for holder in holders:
                    self.patches.append((holder, attr, fn, wrapper))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, fn, _ in reversed(self.patches):
            setattr(holder, attr, fn)
        self.patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """The original functions, untraced, for the benchmark's own checks."""
        for holder, attr, fn, _ in self.patches:
            setattr(holder, attr, fn)
        try:
            yield
        finally:
            for holder, attr, _, wrapper in self.patches:
                setattr(holder, attr, wrapper)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - covered[i] - s[EVAL_S]
                for i, s in enumerate(self.spans)]

    def report(self, caches_at_end: dict) -> dict:
        """Per-layer metrics as {name: (value, unit)}, plus each layer's share
        of the timed phase."""
        selfs = self.self_times()
        by_name: dict[str, _Totals] = {}
        by_layer: dict[str, _Totals] = {}
        incl: dict[str, float] = {}   # time in a layer, nested calls once
        evals = eval_s = 0
        for i, span in enumerate(self.spans):
            dur = span[END] - span[START]
            for totals in (by_name.setdefault(span[NAME], _Totals()),
                           by_layer.setdefault(span[LAYER], _Totals())):
                totals.add(dur, selfs[i], span[INFO])
            evals += span[EVALS]
            eval_s += span[EVAL_S]
            parent = span[PARENT]
            if parent < 0 or self.spans[parent][LAYER] != span[LAYER]:
                incl[span[LAYER]] = incl.get(span[LAYER], 0.0) + dur

        def stat(name, field):
            return getattr(by_name.get(name, _Totals()), field)

        def layer_stat(layer, field):
            return getattr(by_layer.get(layer, _Totals()), field)

        item_s = stat("bench.item", "dur")
        rivals = sum(layer_stat("verification", "infos"))
        verify_s = incl.get("verification", 0.0)
        # [nodes, quantifiers] of each formula a synthesis call returned to
        # another layer; nested synthesis calls record nothing.
        tops = layer_stat("synthesis", "infos")
        metrics = {
            "verification.calls": (layer_stat("verification", "calls"), "count"),
            "verification.rivals_checked": (rivals, "count"),
            "verification.self_s": (layer_stat("verification", "self_s"), "s"),
            "verification.rivals_per_s": (rivals / verify_s if verify_s else 0.0, "1/s"),
            "verification.item_share": (verify_s / item_s if item_s else 0.0, "ratio"),
            "logic.compile_s": (stat("logic.compile_eval", "dur"), "s"),
            "logic.rival_evals": (int(evals), "count"),
            "logic.rival_eval_s": (eval_s, "s"),
            "logic.evaluate_calls": (stat("logic.evaluate", "calls"), "count"),
            "logic.evaluate_s": (stat("logic.evaluate", "dur"), "s"),
            "structures.enumerate_s": (stat("structures.enumerate_structures", "dur"), "s"),
            "structures.enumerated": (sum(stat("structures.enumerate_structures", "infos")),
                                      "count"),
            "structures.canonical_key_calls": (stat("structures.canonical_key", "calls"), "count"),
            "structures.canonical_key_s": (stat("structures.canonical_key", "dur"), "s"),
            "games.automorphisms_calls": (stat("games.automorphisms", "calls"), "count"),
            "games.automorphisms_s": (stat("games.automorphisms", "dur"), "s"),
            "games.automorphisms_found": (sum(stat("games.automorphisms", "infos")), "count"),
            "games.search_s": (stat("games.GameSolver.position_rank", "self_s"), "s"),
            "games.rank_self_s": (stat("games.identification_rank", "self_s"), "s"),
            "equivalences.calls": (layer_stat("equivalences", "calls"), "count"),
            "equivalences.self_s": (layer_stat("equivalences", "self_s"), "s"),
            "invariants.calls": (layer_stat("invariants", "calls"), "count"),
            "invariants.self_s": (layer_stat("invariants", "self_s"), "s"),
            "synthesis.calls": (layer_stat("synthesis", "calls"), "count"),
            "synthesis.self_s": (layer_stat("synthesis", "self_s"), "s"),
            "synthesis.formula_nodes": (sum(t[0] for t in tops), "count"),
            "synthesis.quantifiers_max": (max((t[1] for t in tops), default=0), "count"),
            "items.count": (stat("bench.item", "calls"), "count"),
            "items.s": (item_s, "s"),
            "caches.entries": (sum(caches_at_end.values()), "count"),
        }
        # Each layer's self time as a share of the timed phase without the
        # benchmark's own checks; the compiled evaluations count as logic.
        pass_s = stat("bench.pass", "dur") - stat("bench.check", "dur")
        shares = {layer: totals.self_s for layer, totals in by_layer.items()
                  if layer != "check"}
        shares["logic"] = shares.get("logic", 0.0) + eval_s
        shares = {layer: round(value / pass_s, 4) if pass_s else 0.0
                  for layer, value in sorted(shares.items())}
        return {"layers": metrics, "shares": shares,
                "unwrapped": self.unwrapped, "spans": len(self.spans)}

    def write_spans(self, path: str):
        selfs = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": FIELDS + ("self",)}) + "\n")
            for span, self_s in zip(self.spans, selfs):
                handle.write(json.dumps(span + [self_s]) + "\n")
