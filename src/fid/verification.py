"""Brute-force semantics of "identifies" and "defines", plus corpus audits.

A synthesized formula is only trusted after every same-order rival (or every
rival up to an order cap, for defining) has been enumerated and evaluated
against it. The audit sweeps a whole enumeration, runs analysis + synthesis +
verification per structure, and aggregates the corpus-level claims.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import InputError
from .invariants import DEFAULT_DELTA_CAP, analyze, bound_report, bs_budget
from .logic import Formula, compile_eval, evaluate
from .structures import (Structure, Vocabulary, _mask_of, _structure_from_mask,
                         canonical_key, enumerate_structures)
from .synthesis import synth_auto, synth_graph


@dataclass(frozen=True)
class VerificationVerdict:
    passed: bool
    counterexample: Structure | None
    rivals_checked: int
    scope: str


def verify_identifies(struct: Structure, phi: Formula, graph_mode: bool = False,
                      rivals=None) -> VerificationVerdict:
    """Pass iff the structure satisfies the formula and no non-isomorphic
    rival of the same order does. The counterexample, if any, is the first
    satisfying rival in enumeration order."""
    if not evaluate(struct, phi):
        return VerificationVerdict(False, struct, 0, "same-order")
    checker = compile_eval(phi, struct.vocab)
    own = canonical_key(struct, graph_mode)
    checked = 0
    if rivals is None:
        rivals = enumerate_structures(struct.vocab, struct.order, graph_mode)
    for rival in rivals:
        if _mask_of(rival, graph_mode) == own:
            continue
        checked += 1
        if checker(rival):
            return VerificationVerdict(False, rival, checked, "same-order")
    return VerificationVerdict(True, None, checked, "same-order")


def verify_defines_up_to(struct: Structure, phi: Formula, max_order: int,
                         graph_mode: bool = False) -> VerificationVerdict:
    """Bounded evidence for defining: no rival of any order up to the cap
    satisfies the formula. Not a proof of definability."""
    if max_order < struct.order:
        raise InputError("the order cap must cover the structure's own order")
    if not evaluate(struct, phi):
        return VerificationVerdict(False, struct, 0, f"up-to-{max_order}")
    checker = compile_eval(phi, struct.vocab)
    own = canonical_key(struct, graph_mode)
    checked = 0
    for order in range(1, max_order + 1):
        for rival in enumerate_structures(struct.vocab, order, graph_mode):
            if order == struct.order and _mask_of(rival, graph_mode) == own:
                continue
            checked += 1
            if checker(rival):
                return VerificationVerdict(False, rival, checked,
                                           f"up-to-{max_order}")
    return VerificationVerdict(True, None, checked, f"up-to-{max_order}")


# ---------------------------------------------------------------------------
# Corpus audit.
# ---------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _audit_init(vocab_spec: str, n: int, graph_mode: bool, cap: int,
                rival_masks: list[int]):
    from .structures import parse_vocab_spec
    vocab = parse_vocab_spec(vocab_spec)
    _WORKER_STATE["vocab"] = vocab
    _WORKER_STATE["n"] = n
    _WORKER_STATE["graph_mode"] = graph_mode
    _WORKER_STATE["cap"] = cap
    _WORKER_STATE["rivals"] = [
        _structure_from_mask(vocab, n, m, graph_mode) for m in rival_masks]


def _audit_one(mask: int) -> dict:
    vocab = _WORKER_STATE["vocab"]
    n = _WORKER_STATE["n"]
    graph_mode = _WORKER_STATE["graph_mode"]
    cap = _WORKER_STATE["cap"]
    rivals = _WORKER_STATE["rivals"]
    struct = _structure_from_mask(vocab, n, mask, graph_mode)
    return audit_record(struct, mask, graph_mode, cap, rivals)


def audit_record(struct: Structure, mask: int, graph_mode: bool,
                 cap: int, rivals) -> dict:
    report = analyze(struct, cap)
    synth = synth_graph(struct, cap) if graph_mode else synth_auto(struct, cap)
    verdict = verify_identifies(struct, synth.formula, graph_mode, rivals)
    verified = verdict.passed
    if graph_mode:
        auto = synth_auto(struct, cap)
        verified = verified and verify_identifies(struct, auto.formula,
                                                  graph_mode, rivals).passed
    bounds = bound_report(struct, cap)
    delta = report.delta_exact if report.delta_exact is not None else report.delta_lower
    return {
        "canon": f"{mask:x}",
        "n": struct.order,
        "k": struct.vocab.max_arity,
        "sigma": report.sigma,
        "delta": delta,
        "rho": report.rho,
        "method": synth.method,
        "totalQuantifiers": synth.metrics.quantifiers,
        "universals": synth.metrics.universals,
        "bound": synth.claimed_bound,
        "verified": verified,
        "audits_ok": not bounds.violations(),
    }


@dataclass
class AuditReport:
    records: list[dict]
    summary: dict

    @property
    def ok(self) -> bool:
        return self.summary["all_verified"] and self.summary["all_audits_ok"]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)


def audit_corpus(vocab: Vocabulary, n: int, graph_mode: bool = False,
                 cap: int = DEFAULT_DELTA_CAP, workers: int = 1) -> AuditReport:
    """Analyze + synthesize + exhaustively verify every structure of the
    given order, and aggregate the corpus-level bound claims. Output is
    independent of the worker count."""
    structs = list(enumerate_structures(vocab, n, graph_mode))
    masks = [_mask_of(s, graph_mode) for s in structs]
    if workers > 1:
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_audit_init,
                initargs=(vocab.spec(), n, graph_mode, cap, masks)) as pool:
            records = list(pool.map(_audit_one, masks, chunksize=16))
    else:
        records = [audit_record(s, m, graph_mode, cap, structs)
                   for s, m in zip(structs, masks)]
    lam_min = min(max(r["sigma"], r["delta"]) for r in records)
    summary = {
        "vocab": vocab.spec(),
        "n": n,
        "graph_mode": graph_mode,
        "structures": len(records),
        "all_verified": all(r["verified"] for r in records),
        "all_audits_ok": all(r["audits_ok"] for r in records),
        "max_quantifiers": max(r["totalQuantifiers"] for r in records),
        "min_max_sigma_delta": lam_min,
        "budget": float(bs_budget(n, vocab.max_arity)),
    }
    return AuditReport(records, summary)
