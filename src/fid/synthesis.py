"""Builders for identifying formulas.

Three prefix-class (existential-then-universal) constructions driven by the
structure's invariants -- the largest similarity class, a fineness-1 base
from a delta witness, and an arbitrary base -- plus the naive existential
formulas, one route selector shared by the combined selector and the graph
pipeline (with its one exceptional order-5 graph), and the two adversary
constructions that defeat under-quantified formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .equivalences import (base_decomposition, classes_of, fineness, is_base,
                           sim_classes, transform_e)
from .errors import FidError, FormulaTooLarge, InputError, check
from .invariants import (DEFAULT_DELTA_CAP, best_delta, bs_budget, gen_gm,
                         rho, rho_of_base, sigma)
from .logic import (DEFAULT_NODE_CEILING, TRUE, And, Eq, Exists, ForAll,
                    Formula, FormulaMetrics, Not, Or, Rel, compile_eval, conj,
                    disj, dist_formula, exists_block, forall_block,
                    guard_nodes, implies, iso_formula, metrics,
                    split_prefix)
from .structures import (GRAPH_VOCAB, Structure, canonical_key,
                         graph_complement)


@dataclass(frozen=True)
class SynthesisResult:
    formula: Formula
    method: str
    metrics: FormulaMetrics
    claimed_bound: int

    def __post_init__(self):
        check(self.metrics.quantifiers <= self.claimed_bound,
              f"{self.method}: {self.metrics.quantifiers} quantifiers exceed "
              f"claimed bound {self.claimed_bound}")
        check(self.metrics.is_bs, f"{self.method}: formula left the prefix class")


def _result(formula: Formula, method: str, claimed: int) -> SynthesisResult:
    return SynthesisResult(formula, method, metrics(formula), claimed)


def _ivar(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


def _iso(struct: Structure, elements, variables) -> Formula:
    if not elements:
        return TRUE
    return iso_formula(struct, elements, variables)


def synth_naive_identify(struct: Structure) -> SynthesisResult:
    """n existentials asserting the full atomic diagram."""
    n = struct.order
    xs = _ivar("x", n)
    body = iso_formula(struct, list(range(n)), xs)
    return _result(exists_block(xs, body), "naive-id", n)


def synth_naive_define(struct: Structure) -> SynthesisResult:
    """The identifying diagram plus a universal domain-closure clause: n+1
    quantifiers, and rivals of every order are excluded."""
    n = struct.order
    xs = _ivar("x", n)
    extra = f"x{n + 1}"
    closure = disj(Eq(extra, x) for x in xs)
    body = And((iso_formula(struct, list(range(n)), xs), closure))
    return _result(exists_block(xs, ForAll(extra, body)), "naive-def", n + 1)


def synth_sigma(struct: Structure) -> SynthesisResult | None:
    """Pin the complement of a maximum similarity class existentially and
    close over the class with exactly max-arity universals. Applicable when
    the class is larger than the arity bound; n + k - sigma quantifiers."""
    n = struct.order
    k = struct.vocab.max_arity
    sig, cls = sigma(struct)
    if sig < k + 1:
        return None
    class_sorted = sorted(cls)
    rest = sorted(set(struct.universe()) - set(cls))
    ys = _ivar("y", len(rest))
    xs = _ivar("x", k)
    head = _iso(struct, rest, ys)
    tail = implies(dist_formula(ys + xs),
                   iso_formula(struct, rest + class_sorted[:k], ys + xs))
    body = And((head, tail))
    formula = exists_block(ys, forall_block(xs, body))
    return _result(formula, "sigma", n + k - sig)


def _rho_formula(struct: Structure, base: frozenset[int], q: int,
                 method: str, claimed: int,
                 ceiling: int = DEFAULT_NODE_CEILING) -> SynthesisResult:
    """Common body of the base-driven constructions: pin the base, then say
    every q-tuple of the remainder looks like some q-tuple of the original
    remainder (a disjunction over injective index maps)."""
    n = struct.order
    p = len(base)
    if p + q >= n:
        fallback = synth_naive_identify(struct)
        return SynthesisResult(fallback.formula, method, fallback.metrics,
                               max(claimed, n))
    base_sorted = sorted(base)
    rest = sorted(set(struct.universe()) - base)
    ys = _ivar("y", p)
    xs = _ivar("x", q)
    atoms_per_iso = sum((p + q) ** arity for _, arity in struct.vocab.symbols)
    branch_count = 1
    for i in range(q):
        branch_count *= len(rest) - i
    guard_nodes(branch_count * (atoms_per_iso + (p + q) * (p + q)), ceiling)
    branches = []
    for pick in itertools.permutations(rest, q):
        branches.append(iso_formula(struct, base_sorted + list(pick), ys + xs))
    body = And((_iso(struct, base_sorted, ys),
                implies(dist_formula(ys + xs), disj(branches))))
    formula = exists_block(ys, forall_block(xs, body))
    return _result(formula, method, claimed)


def synth_rho(struct: Structure, base: frozenset[int] | None = None,
              cap: int = DEFAULT_DELTA_CAP,
              ceiling: int = DEFAULT_NODE_CEILING) -> SynthesisResult:
    """Base-driven identification with |B| + max{f(B)+1, k} quantifiers,
    falling back to the naive diagram when that is no better than n."""
    if base is None:
        picked = rho(struct, cap)
        base, value, q = picked.base, picked.value, max(
            picked.fineness + 1, struct.vocab.max_arity)
    else:
        base = frozenset(base)
        if not is_base(struct, base):
            raise InputError(f"{sorted(base)} is not a base of the structure")
        picked = rho_of_base(struct, base)
        value, q = picked.value, max(picked.fineness + 1, struct.vocab.max_arity)
    return _rho_formula(struct, base, q, "rho", value, ceiling)


def synth_delta(struct: Structure, cap: int = DEFAULT_DELTA_CAP,
                ceiling: int = DEFAULT_NODE_CEILING) -> SynthesisResult | None:
    """The fineness-1 specialization: condition on the complement of a delta
    witness, universals pinned to exactly the arity bound. Needs arity >= 2."""
    k = struct.vocab.max_arity
    if k < 2:
        return None
    n = struct.order
    value, witness, _ = best_delta(struct, cap)
    base = frozenset(struct.universe()) - witness.distinct
    if len(base) < n:
        check(fineness(struct, base) == 1, "delta-witness complement is not fineness-1")
    return _rho_formula(struct, base, k, "delta", n + k - value, ceiling)


def _build_best(struct: Structure, cap: int, ceiling: int, rho_bases,
                limit: int) -> SynthesisResult:
    """Build the route with the fewest quantifiers: sigma, delta, rho on each
    of `rho_bases`, then the naive diagram, ties to the earlier route. Every
    count is fixed by the invariants, so only the winner is built; a route
    over the node ceiling falls through to the next, and routes predicted
    above `limit` are never tried."""
    n = struct.order
    k = struct.vocab.max_arity
    routes = []
    sig = sigma(struct)[0]
    if sig >= k + 1:
        routes.append((n + k - sig, partial(synth_sigma, struct)))
    if k >= 2:
        routes.append((min(n + k - best_delta(struct, cap)[0], n),
                       partial(synth_delta, struct, cap, ceiling)))
    for base in rho_bases:
        picked = rho_of_base(struct, base)
        routes.append((min(picked.value, n),
                       partial(_rho_formula, struct, base, max(picked.fineness + 1, k),
                               "rho", picked.value, ceiling)))
    routes.append((n, partial(synth_naive_identify, struct)))
    routes.sort(key=itemgetter(0))
    too_large = None
    for predicted, build in routes:
        if predicted > limit:
            break
        try:
            best = build()
        except FormulaTooLarge as exc:
            too_large = exc
            continue
        check(best.metrics.quantifiers == predicted,
              f"{best.method}: predicted {predicted}, built {best.metrics.quantifiers}")
        return best
    if too_large is not None:
        raise too_large
    raise FidError(f"budget violation: no route within {limit} quantifiers "
                   f"at order {n}")


def synth_auto(struct: Structure, cap: int = DEFAULT_DELTA_CAP,
               ceiling: int = DEFAULT_NODE_CEILING) -> SynthesisResult:
    """Best of the three constructions plus the naive diagram, by total
    quantifier count. Checks the combined budget: strictly below
    (1 - 1/(2k^2+2))n + k for k >= 2, and at most n/2 + 1 for k = 1."""
    n = struct.order
    k = struct.vocab.max_arity
    budget = bs_budget(n, k)
    if k >= 2:
        claimed = int(budget) - 1 if budget == int(budget) else int(budget)
    else:
        claimed = int(budget)
    best = _build_best(struct, cap, ceiling,
                       (base_decomposition(struct).base, rho(struct, cap).base),
                       claimed)
    total = best.metrics.quantifiers
    check(total < budget if k >= 2 else total <= budget,
          f"budget violation: {total} quantifiers, budget {budget}")
    return SynthesisResult(best.formula, "auto", best.metrics, claimed)


# ---------------------------------------------------------------------------
# Graphs.
# ---------------------------------------------------------------------------

def exceptional_graph() -> Structure:
    """Order 5, two adjacent edges, two isolated vertices: the one graph of
    order >= 5 that needs three universal quantifiers."""
    return Structure(GRAPH_VOCAB, 5, [{(0, 1), (1, 0), (1, 2), (2, 1)}])


def exceptional_graph_formula() -> Formula:
    """One existential and three universals: everything away from the pinned
    vertex is edgeless, and the pinned vertex is adjacent to something and
    non-adjacent to something in every remaining triple."""
    y, xs = "y1", ["x1", "x2", "x3"]
    consequent = And((
        Not(Rel("E", ("x1", "x2"))),
        disj(Rel("E", (y, x)) for x in xs),
        disj(Not(Rel("E", (y, x))) for x in xs),
    ))
    body = implies(dist_formula([y] + xs), consequent)
    return Exists(y, forall_block(xs, body))


def complement_rewrite(phi: Formula) -> Formula:
    """Atom-level complement transform for graph formulas: a structure
    satisfies the rewrite iff its graph complement satisfies the original.
    Prefix shape and quantifier counts are preserved."""
    if isinstance(phi, Rel):
        return And((Not(phi), Not(Eq(phi.args[0], phi.args[1]))))
    if isinstance(phi, Eq):
        return phi
    if isinstance(phi, Not):
        return Not(complement_rewrite(phi.child))
    if isinstance(phi, And):
        return And(tuple(complement_rewrite(c) for c in phi.children))
    if isinstance(phi, Or):
        return Or(tuple(complement_rewrite(c) for c in phi.children))
    if isinstance(phi, Exists):
        return Exists(phi.var, complement_rewrite(phi.body))
    return ForAll(phi.var, complement_rewrite(phi.body))


def synth_graph(struct: Structure, cap: int = DEFAULT_DELTA_CAP,
                ceiling: int = DEFAULT_NODE_CEILING) -> SynthesisResult:
    """Graph pipeline: the exceptional graph and its complement get explicit
    four-quantifier formulas; all other graphs get the best invariant-driven
    construction, which for order at least 5 stays within n-1 quantifiers, at
    most two of them universal.

    The routes are sigma, delta, rho on the shell (the set grown by
    transform_e plus its classes of at most three elements) and the naive
    diagram. Rho on the shell takes max(f+1, 2) universals, f the shell's
    fineness, so from order 5 on that route is left out when f >= 2, unless
    it falls back to the naive diagram (no universals).

    The complement is exceptional for the same reason the graph itself is:
    the two invariants driving every route are complement-invariant, and
    exhaustive search over type sets shows no two-universal four-quantifier
    sentence separates either graph from all 33 rivals.
    """
    if not struct.is_graph():
        raise InputError("graph synthesis needs a symmetric loop-free binary structure")
    n = struct.order
    k = 2
    if n == 5:
        key = canonical_key(struct)
        if key == canonical_key(exceptional_graph()):
            return _result(exceptional_graph_formula(), "graph", 4)
        if key == canonical_key(graph_complement(exceptional_graph())):
            return _result(complement_rewrite(exceptional_graph_formula()), "graph", 4)

    grown = transform_e(struct, frozenset())
    cls = classes_of(struct, grown, k + 1) if len(grown) < n else None
    if cls is not None:
        check(len(classes_of(struct, grown)) >= len(grown) + 1,
              "class count fell below the growth guarantee")
        shell = grown | frozenset(e for c in cls.classes for e in c)
    else:
        shell = grown
    check(is_base(struct, shell), "grown set plus small classes is not a base")
    shell_rho = rho_of_base(struct, shell)
    two_universal = shell_rho.value >= n or shell_rho.fineness < 2 or n <= 4
    budget = Fraction(3 * n, 4) + Fraction(3, 2)
    claimed = n - 1 if n >= 5 else int(budget)
    best = _build_best(struct, cap, ceiling, (shell,) if two_universal else (),
                       claimed)
    total = best.metrics.quantifiers
    check(total <= budget, f"graph budget violation: {total} quantifiers at order {n}")
    check(n < 5 or (total <= n - 1 and best.metrics.universals <= 2),
          f"two-universal budget violation at order {n}: {best.metrics}")
    return SynthesisResult(best.formula, "graph", best.metrics, claimed)


# ---------------------------------------------------------------------------
# Adversaries.
# ---------------------------------------------------------------------------

def _prenex_split(phi: Formula):
    """(existential vars, universal vars, matrix) for an E*A* sentence,
    or None if the formula is not of that shape."""
    if not metrics(phi).is_bs:
        return None
    quants, matrix = split_prefix(phi)
    return ([q.var for q in quants if isinstance(q, Exists)],
            [q.var for q in quants if isinstance(q, ForAll)], matrix)


def _existential_witness(struct: Structure, ys, xs, matrix):
    """Lexicographically least assignment of the existential block making the
    universal part true, or None."""
    checker = compile_eval(forall_block(xs, matrix), struct.vocab, tuple(ys))
    for assignment in itertools.product(struct.universe(), repeat=len(ys)):
        if checker(struct, *assignment):
            return assignment
    return None


def universal_deficit_adversary(struct: Structure, phi: Formula) -> Structure | None:
    """For a satisfied prefix-class formula with fewer universals than the
    arity bound and fewer than n quantifiers overall, flip one full-arity
    tuple that the formula can never inspect. The result satisfies the
    formula but is not isomorphic to the input."""
    split = _prenex_split(phi)
    if split is None:
        return None
    ys, xs, matrix = split
    n = struct.order
    k = struct.vocab.max_arity
    p, q = len(ys), len(xs)
    if q > k - 1 or p + q > n - 1 or n < k:
        return None
    witness = _existential_witness(struct, ys, xs, matrix)
    if witness is None:
        return None
    avoid = set(witness)
    outside = [e for e in struct.universe() if e not in avoid]
    chosen = None
    for cand in itertools.combinations(range(n), k):
        if len(set(cand) - avoid) >= q + 1:
            chosen = cand
            break
    if chosen is None:
        return None
    check(len(outside) >= q + 1, "adversary: too few elements outside the witness")
    sym = next(i for i, (_, arity) in enumerate(struct.vocab.symbols) if arity == k)
    flipped = tuple(sorted(chosen))
    tables = [set(t) for t in struct.tables]
    if flipped in tables[sym]:
        tables[sym].remove(flipped)
    else:
        tables[sym].add(flipped)
    return Structure(struct.vocab, n, tables)


def gm_adversary(m: int, q: int, phi: Formula) -> Structure | None:
    """For a satisfied prefix-class formula on the class-grid graph with q
    universals and too few existentials, shift one vertex from a barely
    touched class into a heavily untouched one. The class profile changes
    (so the result is not isomorphic) but the formula cannot tell."""
    grid = gen_gm(m)
    split = _prenex_split(phi)
    if split is None:
        return None
    ys, xs, matrix = split
    if len(xs) != q or len(ys) >= m * m - (q - 1) * m:
        return None
    witness = _existential_witness(grid, ys, xs, matrix)
    if witness is None:
        return None
    fresh = set(grid.universe()) - set(witness)
    blocks = sim_classes(grid).classes
    ranked = sorted(blocks, key=lambda c: (-len(fresh & set(c)), min(c)))
    big = ranked[0]
    if len(fresh & set(big)) < q:
        return None
    donor = next((c for c in blocks
                  if c != big and fresh & set(c)), None)
    if donor is None:
        return None
    moved = min(fresh & set(donor))
    model = min(set(big) - {moved})
    peer = min(set(big) - {moved, model})
    table = set(grid.tables[0])
    table = {t for t in table if moved not in t}
    for x in grid.universe():
        if x in (moved, model):
            continue
        if (model, x) in table:
            table.add((moved, x))
            table.add((x, moved))
    if (model, peer) in grid.tables[0]:
        table.add((moved, model))
        table.add((model, moved))
    return Structure(grid.vocab, grid.order, [table])
