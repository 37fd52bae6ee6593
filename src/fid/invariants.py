"""Numeric invariants of a structure, the element-cloning operator, the
closed-form bound evaluations, and the two fixture generators.

delta is computed two ways: an exact sweep over all condition sets (capped),
and a constructive lower bound read off the decomposition layers. rho is
reported as an upper bound over a small family of candidate bases; exact
minimization over all subsets sits behind the same cap as the exact delta
sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .equivalences import (_classes, base_decomposition, classes_of,
                           counting_terms, fineness, is_base, sim_classes)
from .errors import InputError, check
from .structures import (GRAPH_VOCAB, Structure, induced, is_partial_isomorphism,
                         memoized)

DEFAULT_DELTA_CAP = 16


def sigma(struct: Structure) -> tuple[int, tuple[int, ...]]:
    """Largest similarity-class size, with the witness class (least minimum
    element among maximizers)."""
    classes = sim_classes(struct).classes
    best = max(len(c) for c in classes)
    witness = next(c for c in classes if len(c) == best)
    return best, witness


@dataclass(frozen=True)
class DeltaWitness:
    value: int
    cond: frozenset[int]       # condition set maximizing the class count
    distinct: frozenset[int]   # one representative per class: pairwise
                               # non-equivalent conditioned on its complement


def _witness_from_cond(struct: Structure, cond: frozenset[int]) -> frozenset[int]:
    return frozenset(min(c) for c in classes_of(struct, cond).classes)


@memoized
def _delta_exact_cached(struct: Structure) -> DeltaWitness:
    n = struct.order
    best = -1
    best_key = None
    best_cond = None
    for mask in range(1 << n):
        cond = frozenset(i for i in range(n) if mask >> i & 1)
        if len(cond) == n:
            continue
        count = len(_classes(struct, cond))
        key = tuple(sorted(cond))
        if count > best or (count == best and key < best_key):
            best, best_key, best_cond = count, key, cond
    return DeltaWitness(best, best_cond, _witness_from_cond(struct, best_cond))


def delta_exact(struct: Structure, cap: int = DEFAULT_DELTA_CAP) -> DeltaWitness | None:
    """Exact maximum class count over all proper condition sets; None when the
    order exceeds the sweep cap."""
    if struct.order > cap:
        return None
    return _delta_exact_cached(struct)


def delta_lower(struct: Structure) -> DeltaWitness:
    """Constructive lower bound: best class count along the decomposition
    layers (and the empty set)."""
    decomp = base_decomposition(struct)
    candidates = [frozenset()]
    candidates.extend(decomp.x)
    best = -1
    best_cond = None
    for cond in candidates:
        if len(cond) == struct.order:
            continue
        count = len(classes_of(struct, cond))
        if count > best:
            best, best_cond = count, cond
    return DeltaWitness(best, best_cond, _witness_from_cond(struct, best_cond))


def best_delta(struct: Structure, cap: int = DEFAULT_DELTA_CAP) -> tuple[int, DeltaWitness, bool]:
    """(value, witness, exact_flag): the exact delta when the order is within
    the cap, otherwise the constructive lower bound."""
    exact = delta_exact(struct, cap)
    if exact is not None:
        return exact.value, exact, True
    lower = delta_lower(struct)
    return lower.value, lower, False


@dataclass(frozen=True)
class RhoResult:
    value: int
    base: frozenset[int]
    fineness: int


def rho_of_base(struct: Structure, base: frozenset[int]) -> RhoResult:
    k = struct.vocab.max_arity
    f = fineness(struct, base)
    return RhoResult(len(base) + max(f + 1, k), base, f)


def candidate_bases(struct: Structure, cap: int = DEFAULT_DELTA_CAP) -> list[frozenset[int]]:
    """The candidate family behind the reported rho upper bound: the
    constructed base, the complements of the delta witnesses (fineness-1
    bases), the empty set when it separates everything, and the trivial
    all-but-one base."""
    n = struct.order
    universe = frozenset(struct.universe())
    cands: list[frozenset[int]] = [base_decomposition(struct).base]
    exact = delta_exact(struct, cap)
    if exact is not None:
        cands.append(universe - exact.distinct)
    cands.append(universe - delta_lower(struct).distinct)
    if is_base(struct, frozenset()):
        cands.append(frozenset())
    cands.append(universe - {n - 1})
    return list(dict.fromkeys(cands))


def rho(struct: Structure, cap: int = DEFAULT_DELTA_CAP) -> RhoResult:
    """Minimum rho over the candidate bases. An upper bound on the true
    minimum over all bases, not the exact value."""
    best: RhoResult | None = None
    for cand in candidate_bases(struct, cap):
        check(is_base(struct, cand), f"rho: candidate {sorted(cand)} is not a base")
        result = rho_of_base(struct, cand)
        if best is None or result.value < best.value:
            best = result
    return best


def rho_exact(struct: Structure, cap: int = DEFAULT_DELTA_CAP) -> RhoResult | None:
    """Exact minimum over all 2^n subsets that are bases; None above the cap."""
    n = struct.order
    if n > cap:
        return None
    best: RhoResult | None = None
    best_key = None
    for mask in range(1 << n):
        cand = frozenset(i for i in range(n) if mask >> i & 1)
        if not is_base(struct, cand):
            continue
        result = rho_of_base(struct, cand)
        key = (result.value, tuple(sorted(cand)))
        if best is None or key < best_key:
            best, best_key = result, key
    return best


# ---------------------------------------------------------------------------
# Cloning.
# ---------------------------------------------------------------------------

def clone(struct: Structure, v: int, t: int) -> Structure:
    """Append t fresh elements equivalent to v (requires v's similarity class
    to have at least max-arity members). A tuple touching new elements holds
    iff substituting pairwise distinct class members avoiding the tuple
    yields a holding tuple."""
    if t < 0:
        raise InputError("clone count must be non-negative")
    if not (0 <= v < struct.order):
        raise InputError(f"element {v} out of range")
    k = struct.vocab.max_arity
    cls = set(sim_classes(struct).class_of(v))
    if len(cls) < k:
        raise InputError(
            f"similarity class of {v} has {len(cls)} elements; cloning needs >= {k}")
    if t == 0:
        return struct
    n, n2 = struct.order, struct.order + t
    tables = []
    for idx, (_, arity) in enumerate(struct.vocab.symbols):
        table = struct.tables[idx]
        new_table = set()
        for tup in itertools.product(range(n2), repeat=arity):
            fresh = sorted(set(e for e in tup if e >= n))
            if not fresh:
                if tup in table:
                    new_table.add(tup)
                continue
            pool = sorted(cls - set(tup))
            hit = False
            for subst in itertools.permutations(pool, len(fresh)):
                repl = dict(zip(fresh, subst))
                if tuple(repl.get(e, e) for e in tup) in table:
                    hit = True
                    break
            if hit:
                new_table.add(tup)
        tables.append(new_table)
    return Structure(struct.vocab, n2, tables)


def check_clone_definitions(struct: Structure, v: int, t: int) -> bool:
    """Build the clone by substitution and verify the other two
    characterizations hold for it: the class-absorption conditions and the
    any-injective-extension condition."""
    big = clone(struct, v, t)
    n = struct.order
    if t == 0:
        return big == struct
    restriction, _ = induced(big, range(n))
    if restriction != struct:
        return False
    cls = set(sim_classes(struct).class_of(v))
    new_elems = set(range(n, n + t))
    if set(sim_classes(big).class_of(v)) != cls | new_elems:
        return False
    members = sorted(cls)
    targets = sorted(cls | new_elems)
    for image in itertools.permutations(targets, len(members)):
        mapping = {e: e for e in range(n) if e not in cls}
        mapping.update(dict(zip(members, image)))
        if not is_partial_isomorphism(struct, big, mapping):
            return False
    return True


# ---------------------------------------------------------------------------
# Closed-form bounds.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str                  # "audit" entries are checkable facts about M;
                               # "target" entries are budgets for other modules
    bound: Fraction
    achieved: Fraction | None = None
    holds: bool | None = None
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    order: int
    arity: int
    sigma: int
    delta: int
    delta_exact: bool
    entries: tuple[BoundEntry, ...]

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def violations(self):
        return [e for e in self.entries if e.holds is False]


def game_budget(n: int, k: int) -> Fraction:
    """The alternation-1 identification budget at (n, k); game values must
    stay strictly below it."""
    return (1 - Fraction(1, 2 * k)) * n + k * k - k + 2

def bs_budget(n: int, k: int) -> Fraction:
    """Total-quantifier budget for the combined prefix-class synthesis."""
    if k == 1:
        return Fraction(n, 2) + 1
    return (1 - Fraction(1, 2 * k * k + 2)) * n + k


def bound_report(struct: Structure, cap: int = DEFAULT_DELTA_CAP) -> BoundReport:
    n = struct.order
    k = struct.vocab.max_arity
    sig = sigma(struct)[0]
    delta, _, exact = best_delta(struct, cap)
    decomp = base_decomposition(struct)
    lam = max(delta, sig)

    entries = []
    u_kn = game_budget(n, k)
    entries.append(BoundEntry("alt1-identification", "target", u_kn,
                              note="game-length target, strict"))
    entries.append(BoundEntry("alt1-definability", "target", max(u_kn, Fraction(sig + k)),
                              note="definability target via cloning dichotomy"))
    if sig > (1 - Fraction(1, 2 * k)) * n + (k - 1) ** 2 + 1:
        entries.append(BoundEntry("dichotomy", "target", Fraction(sig + k),
                                  achieved=Fraction(sig + 1),
                                  note="large-class case: value within [sigma+1, sigma+k]"))
    else:
        entries.append(BoundEntry("dichotomy", "target", u_kn,
                                  note="small-class case: alt-1 budget applies"))
    entries.append(BoundEntry("bs-identification", "target", bs_budget(n, k),
                              note="prefix-class total-quantifier budget, strict for k>=2"))

    # max{delta, sigma} > sqrt(n) - k^2, checked in exact integer arithmetic
    sqrt_holds = (lam + k * k) > 0 and (lam + k * k) ** 2 > n
    entries.append(BoundEntry("sqrt-floor", "audit",
                              Fraction(n), achieved=Fraction(lam + k * k),
                              holds=sqrt_holds,
                              note="(max{delta,sigma}+k^2)^2 > n"))

    base_size = len(decomp.base)
    base_bound = 2 * k * k * delta - (k - 1)
    entries.append(BoundEntry("base-size", "audit", Fraction(base_bound),
                              achieved=Fraction(base_size),
                              holds=base_size <= base_bound,
                              note="constructed base vs 2k^2*delta-(k-1)"
                                   + ("" if exact else " (delta lower bound)")))

    counts = counting_terms(struct, decomp)
    a0_lhs, a0_rhs = counts["a0"]
    entries.append(BoundEntry("layer-count-weighted", "audit", Fraction(a0_rhs),
                              achieved=Fraction(a0_lhs), holds=counts["a0_holds"]))
    if k >= 2:
        b0_lhs, b0_rhs = counts["b0"]
        entries.append(BoundEntry("layer-count-halved", "audit", b0_rhs,
                                  achieved=b0_lhs, holds=counts["b0_holds"]))
    return BoundReport(order=n, arity=k, sigma=sig, delta=delta,
                       delta_exact=exact, entries=tuple(entries))


@dataclass(frozen=True)
class InvariantReport:
    sigma: int
    sigma_class: tuple[int, ...]
    delta_exact: int | None
    delta_lower: int
    delta_witness: tuple[int, ...] | None
    rho: int
    rho_base: tuple[int, ...]
    fineness: int
    lam: int
    irredundant: bool


def analyze(struct: Structure, cap: int = DEFAULT_DELTA_CAP) -> InvariantReport:
    sig, sig_class = sigma(struct)
    exact = delta_exact(struct, cap)
    lower = delta_lower(struct)
    rho_result = rho(struct, cap)
    witness = exact.distinct if exact is not None else lower.distinct
    delta_best = exact.value if exact is not None else lower.value
    return InvariantReport(
        sigma=sig,
        sigma_class=sig_class,
        delta_exact=exact.value if exact is not None else None,
        delta_lower=lower.value,
        delta_witness=tuple(sorted(witness)),
        rho=rho_result.value,
        rho_base=tuple(sorted(rho_result.base)),
        fineness=rho_result.fineness,
        lam=max(delta_best, sig),
        irredundant=sig == 1,
    )


# ---------------------------------------------------------------------------
# Fixture generators.
# ---------------------------------------------------------------------------

def gen_gm(m: int) -> Structure:
    """Graph of order m^2 with exactly m similarity classes of m elements.

    For m >= 4 this blows up a path on m vertices (paths of length >= 3 have
    no transposition automorphisms) into independent classes joined by
    complete bipartite layers. The path construction collapses for m <= 3,
    so orders 4 and 9 use direct designs that mix clique and independent
    classes to keep the classes apart.
    """
    if m < 2:
        raise InputError("class-grid generator needs m >= 2")
    edges: set[tuple[int, int]] = set()

    def join(xs, ys):
        for x in xs:
            for y in ys:
                edges.add((x, y))
                edges.add((y, x))

    def clique(xs):
        for x, y in itertools.combinations(xs, 2):
            edges.add((x, y))
            edges.add((y, x))

    blocks = [tuple(range(i * m, (i + 1) * m)) for i in range(m)]
    if m == 2:
        clique(blocks[1])
    elif m == 3:
        clique(blocks[1])
        join(blocks[0], blocks[1])
    else:
        for i in range(m - 1):
            join(blocks[i], blocks[i + 1])
    struct = Structure(GRAPH_VOCAB, m * m, [edges])
    check(sim_classes(struct).sizes() == (m,) * m,
          f"gen_gm({m}): class-grid construction lost its class structure")
    return struct


def gen_mfmg(m: int) -> tuple[Structure, Structure]:
    """The irredundant digraph pair: m copies of a single directed edge plus m
    copies of the edge-with-loop, against (m-1) and (m+1) copies. Both have
    order 4m and differ in loop count, so they are never isomorphic."""
    if m < 1:
        raise InputError("digraph-pair generator needs m >= 1")

    def build(plain: int, looped: int) -> Structure:
        table = set()
        for block in range(plain + looped):
            u, v = 2 * block, 2 * block + 1
            table.add((u, v))
            if block >= plain:
                table.add((u, u))
        return Structure(GRAPH_VOCAB, 2 * (plain + looped), [table])

    return build(m, m), build(m - 1, m + 1)
