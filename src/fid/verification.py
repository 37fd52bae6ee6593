"""Exhaustive semantics of "identifies" and "defines", plus corpus audits.

A synthesized formula is only trusted after every same-order rival (or every
rival up to an order cap, for defining) has been enumerated and checked
against it. The check is bit-sliced: the rivals of one order are taken in
blocks, and one pass of `logic.compile_bits` gives the set of rivals in a
block that satisfy the formula, one bit per rival. Only satisfying rivals
are canonicalised, to tell the input's own class from a counterexample.
The audit sweeps a whole enumeration, runs analysis + synthesis +
verification per structure, and aggregates the corpus-level claims.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import InputError
from .invariants import DEFAULT_DELTA_CAP, analyze, bound_report, bs_budget
from .logic import BitSlices, Formula, bit_slices, compile_bits
from .structures import (Structure, Vocabulary, _mask_of, _structure_from_mask,
                         canonical_key, enumerate_structures)
from .synthesis import synth_auto, synth_graph

# Rivals per bit-sliced pass. Large enough that the 3044 order-4 digraphs
# are one block; the enumeration is consumed one block at a time.
RIVAL_BLOCK = 4096


@dataclass(frozen=True)
class VerificationVerdict:
    passed: bool
    counterexample: Structure | None
    rivals_checked: int
    scope: str


# The last block sliced, as ((vocab, order, block), slices). An audit checks
# every formula against the same rival list, so its slices are built once.
# The key is compared by value; the identity shortcut of tuple equality makes
# a hit one pointer comparison per rival.
_last_slices: tuple = (None, None)


def _slices(vocab: Vocabulary, order: int, block: tuple[Structure, ...]) -> BitSlices:
    global _last_slices
    key, slices = _last_slices
    if key != (vocab, order, block):
        slices = bit_slices(vocab, order, block)
        _last_slices = ((vocab, order, block), slices)
    return slices


def _first_satisfying(check, vocab: Vocabulary, order: int, rivals, is_own):
    """(the first rival outside the input's own class that satisfies the
    compiled sentence `check`, or None; the number of such rivals checked
    up to it). All rivals must have the given order.

    Every rival of the input's own class satisfies the sentence, so only
    satisfying rivals, lowest bit first, are tested for membership. The
    rivals are sliced RIVAL_BLOCK at a time."""
    rivals = iter(rivals)
    checked = 0
    while block := tuple(itertools.islice(rivals, RIVAL_BLOCK)):
        sat = check(_slices(vocab, order, block))
        own = 0
        while sat:
            low = sat & -sat
            r = low.bit_length() - 1
            if not is_own(block[r]):
                return block[r], checked + r + 1 - own
            own += 1
            sat ^= low
        checked += len(block) - own
    return None, checked


def verify_identifies(struct: Structure, phi: Formula, graph_mode: bool = False,
                      rivals=None) -> VerificationVerdict:
    """Pass iff the structure satisfies the formula and no non-isomorphic
    rival of the same order does. The counterexample, if any, is the first
    satisfying rival in enumeration order (in the order of `rivals`, which
    must all have the structure's order)."""
    check = compile_bits(phi, struct.vocab)
    if not check(bit_slices(struct.vocab, struct.order, (struct,))):
        return VerificationVerdict(False, struct, 0, "same-order")
    own = canonical_key(struct, graph_mode)
    if rivals is None:
        rivals = enumerate_structures(struct.vocab, struct.order, graph_mode)
    counterexample, checked = _first_satisfying(
        check, struct.vocab, struct.order, rivals,
        lambda rival: _mask_of(rival, graph_mode) == own)
    return VerificationVerdict(counterexample is None, counterexample, checked,
                               "same-order")


def verify_defines_up_to(struct: Structure, phi: Formula, max_order: int,
                         graph_mode: bool = False) -> VerificationVerdict:
    """Bounded evidence for defining: no rival of any order up to the cap
    satisfies the formula. Not a proof of definability."""
    if max_order < struct.order:
        raise InputError("the order cap must cover the structure's own order")
    scope = f"up-to-{max_order}"
    check = compile_bits(phi, struct.vocab)
    if not check(bit_slices(struct.vocab, struct.order, (struct,))):
        return VerificationVerdict(False, struct, 0, scope)
    own = canonical_key(struct, graph_mode)

    def is_own(rival):
        return rival.order == struct.order and _mask_of(rival, graph_mode) == own

    checked = 0
    for order in range(1, max_order + 1):
        counterexample, count = _first_satisfying(
            check, struct.vocab, order,
            enumerate_structures(struct.vocab, order, graph_mode), is_own)
        checked += count
        if counterexample is not None:
            return VerificationVerdict(False, counterexample, checked, scope)
    return VerificationVerdict(True, None, checked, scope)


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
