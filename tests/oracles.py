"""Independent reference implementations used as test oracles.

Everything here recomputes results by the most direct means available
(exhaustive permutation search, full tuple enumeration, ground expansion of
quantifiers) and deliberately shares no code with the library paths it is
used to check.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from fid.logic import And, Eq, Exists, ForAll, Not, Or, Rel, compile_eval, evaluate
from fid.structures import (Structure, Vocabulary, _mask_of, canonical_key,
                            enumerate_structures)
from fid.verification import VerificationVerdict


def brute_find_isomorphism(a: Structure, b: Structure):
    """First isomorphism in lexicographic order over all bijections."""
    if a.vocab != b.vocab or a.order != b.order:
        return None
    for perm in itertools.permutations(range(a.order)):
        ok = True
        for idx, (_, arity) in enumerate(a.vocab.symbols):
            for tup in itertools.product(range(a.order), repeat=arity):
                if (tup in a.tables[idx]) != (tuple(perm[e] for e in tup) in b.tables[idx]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return dict(enumerate(perm))
    return None


def brute_similar(struct: Structure, u: int, v: int) -> bool:
    swap = {u: v, v: u}
    for idx, (_, arity) in enumerate(struct.vocab.symbols):
        table = struct.tables[idx]
        for tup in itertools.product(range(struct.order), repeat=arity):
            if (tup in table) != (tuple(swap.get(e, e) for e in tup) in table):
                return False
    return True


def brute_equiv_x(struct: Structure, cond, a: int, b: int) -> bool:
    base = sorted(set(cond) | {a})
    for idx, (_, arity) in enumerate(struct.vocab.symbols):
        table = struct.tables[idx]
        for tup in itertools.product(base, repeat=arity):
            swapped = tuple(b if e == a else e for e in tup)
            if (tup in table) != (swapped in table):
                return False
    return True


def brute_approx_x(struct: Structure, cond, a: int, b: int) -> bool:
    base = sorted(set(cond) | {a, b})
    for idx, (_, arity) in enumerate(struct.vocab.symbols):
        table = struct.tables[idx]
        for tup in itertools.product(base, repeat=arity):
            swapped = tuple(b if e == a else a if e == b else e for e in tup)
            if (tup in table) != (swapped in table):
                return False
    return True


def brute_classes(struct: Structure, cond) -> list[tuple[int, ...]]:
    rest = [e for e in range(struct.order) if e not in set(cond)]
    classes: list[list[int]] = []
    for e in rest:
        for cls in classes:
            if brute_equiv_x(struct, cond, cls[0], e):
                cls.append(e)
                break
        else:
            classes.append([e])
    return [tuple(c) for c in classes]


def brute_delta(struct: Structure) -> int:
    n = struct.order
    best = 0
    for mask in range(1 << n):
        cond = {i for i in range(n) if mask >> i & 1}
        if len(cond) == n:
            continue
        best = max(best, len(brute_classes(struct, cond)))
    return best


def brute_iso_classes(vocab: Vocabulary, n: int, graph_mode: bool) -> int:
    """Number of isomorphism classes by raw generation + pairwise brute
    isomorphism tests. Only feasible for tiny table spaces."""
    reps: list[Structure] = []
    if graph_mode:
        cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(cells)):
            table = set()
            for i, (x, y) in enumerate(cells):
                if mask >> i & 1:
                    table.add((x, y))
                    table.add((y, x))
            cand = Structure(vocab, n, [table])
            if not any(brute_find_isomorphism(cand, r) for r in reps):
                reps.append(cand)
        return len(reps)
    all_tuples = []
    for idx, (_, arity) in enumerate(vocab.symbols):
        all_tuples.extend((idx, t) for t in itertools.product(range(n), repeat=arity))
    for mask in range(1 << len(all_tuples)):
        tables = [set() for _ in vocab.symbols]
        for i, (idx, t) in enumerate(all_tuples):
            if mask >> i & 1:
                tables[idx].add(t)
        cand = Structure(vocab, n, tables)
        if not any(brute_find_isomorphism(cand, r) for r in reps):
            reps.append(cand)
    return len(reps)


# ---------------------------------------------------------------------------
# Plain game minimax.
# ---------------------------------------------------------------------------

def brute_game_rank(a: Structure, b: Structure, cap: int, budget=None):
    """Least r <= cap in which Spoiler forces a win, or None: a memoized
    minimax over raw pebble sequences that tries every move and every reply,
    with no symmetry reduction. `budget` caps how often Spoiler may switch
    structures."""
    sizes = (a.order, b.order)
    counted = budget is not None

    def legal(seq1, seq2, x, y) -> bool:
        """Adding the pair (x, y) keeps the pebbled map a partial isomorphism."""
        if any((u == x) != (v == y) for u, v in zip(seq1, seq2)):
            return False
        pairs = dict(zip(seq1 + (x,), seq2 + (y,)))
        for idx, (_, arity) in enumerate(a.vocab.symbols):
            for tup in itertools.product(pairs, repeat=arity):
                if x in tup and (tup in a.tables[idx]) != (
                        tuple(pairs[e] for e in tup) in b.tables[idx]):
                    return False
        return True

    @lru_cache(maxsize=None)
    def wins(seq1, seq2, last, switches, r) -> bool:
        if r == 0:
            return False
        for side in (0, 1):
            switched = last is not None and side != last
            if switched and counted and switches >= budget:
                continue
            for elem in range(sizes[side]):
                spoiler_wins = True
                for reply in range(sizes[1 - side]):
                    x, y = (elem, reply) if side == 0 else (reply, elem)
                    if legal(seq1, seq2, x, y) and not wins(
                            seq1 + (x,), seq2 + (y,), side if counted else None,
                            switches + switched if counted else 0, r - 1):
                        spoiler_wins = False
                        break
                if spoiler_wins:
                    return True
        return False

    for r in range(1, cap + 1):
        if wins((), (), None, 0, r):
            return r
    return None


# ---------------------------------------------------------------------------
# Ground-expansion evaluation.
# ---------------------------------------------------------------------------

def _subst(phi, var: str, value: int):
    if isinstance(phi, Rel):
        return Rel(phi.sym, tuple(value if a == var else a for a in phi.args))
    if isinstance(phi, Eq):
        return Eq(value if phi.left == var else phi.left,
                  value if phi.right == var else phi.right)
    if isinstance(phi, Not):
        return Not(_subst(phi.child, var, value))
    if isinstance(phi, And):
        return And(tuple(_subst(c, var, value) for c in phi.children))
    if isinstance(phi, Or):
        return Or(tuple(_subst(c, var, value) for c in phi.children))
    if phi.var == var:
        return phi
    if isinstance(phi, Exists):
        return Exists(phi.var, _subst(phi.body, var, value))
    return ForAll(phi.var, _subst(phi.body, var, value))


def ground_eval(struct: Structure, phi, env=None) -> bool:
    """Reference semantics: expand every quantifier into an explicit
    disjunction/conjunction over the universe, then evaluate the ground
    formula bottom-up. No sharing with the library evaluator."""
    if env:
        for var, value in env.items():
            phi = _subst(phi, var, value)

    def expand(node):
        if isinstance(node, Rel):
            return node
        if isinstance(node, Eq):
            return node
        if isinstance(node, Not):
            return Not(expand(node.child))
        if isinstance(node, And):
            return And(tuple(expand(c) for c in node.children))
        if isinstance(node, Or):
            return Or(tuple(expand(c) for c in node.children))
        copies = tuple(expand(_subst(node.body, node.var, e))
                       for e in range(struct.order))
        return Or(copies) if isinstance(node, Exists) else And(copies)

    sym_index = {name: i for i, (name, _) in enumerate(struct.vocab.symbols)}

    def value(node) -> bool:
        if isinstance(node, Rel):
            assert all(isinstance(a, int) for a in node.args), "unbound variable"
            return tuple(node.args) in struct.tables[sym_index[node.sym]]
        if isinstance(node, Eq):
            return node.left == node.right
        if isinstance(node, Not):
            return not value(node.child)
        if isinstance(node, And):
            return all(value(c) for c in node.children)
        if isinstance(node, Or):
            return any(value(c) for c in node.children)
        raise AssertionError("quantifier survived expansion")

    return value(expand(phi))


# ---------------------------------------------------------------------------
# Per-rival verification.
# ---------------------------------------------------------------------------

def brute_verify_identifies(struct: Structure, phi, graph_mode: bool = False,
                            rivals=None):
    """`verify_identifies` as one compiled evaluation per rival, skipping
    the rivals whose mask is the input's canonical key."""
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


def brute_verify_defines_up_to(struct: Structure, phi, max_order: int,
                               graph_mode: bool = False):
    """`verify_defines_up_to` as one compiled evaluation per rival."""
    scope = f"up-to-{max_order}"
    if not evaluate(struct, phi):
        return VerificationVerdict(False, struct, 0, scope)
    checker = compile_eval(phi, struct.vocab)
    own = canonical_key(struct, graph_mode)
    checked = 0
    for order in range(1, max_order + 1):
        for rival in enumerate_structures(struct.vocab, order, graph_mode):
            if order == struct.order and _mask_of(rival, graph_mode) == own:
                continue
            checked += 1
            if checker(rival):
                return VerificationVerdict(False, rival, checked, scope)
    return VerificationVerdict(True, None, checked, scope)


# ---------------------------------------------------------------------------
# Characteristic formulas (rank-r types).
# ---------------------------------------------------------------------------

def characteristic_formula(struct: Structure, anchors: tuple[int, ...], rank: int):
    """The rank-`rank` formula true of exactly those tuples in other
    structures from which the Duplicator survives `rank` more rounds. Used to
    cross-check the game solver against pure formula semantics."""
    vocab = struct.vocab

    @lru_cache(maxsize=None)
    def build(abar: tuple[int, ...], r: int):
        names = [f"x{i + 1}" for i in range(len(abar))]
        if r == 0:
            parts = []
            for i in range(len(abar)):
                for j in range(i + 1, len(abar)):
                    atom = Eq(names[i], names[j])
                    parts.append(atom if abar[i] == abar[j] else Not(atom))
            for idx, (sym, arity) in enumerate(vocab.symbols):
                for pick in itertools.product(range(len(abar)), repeat=arity):
                    atom = Rel(sym, tuple(names[i] for i in pick))
                    holds = tuple(abar[i] for i in pick) in struct.tables[idx]
                    parts.append(atom if holds else Not(atom))
            return And(tuple(parts))
        fresh = f"x{len(abar) + 1}"
        branches = []
        for e in range(struct.order):
            sub = build(abar + (e,), r - 1)
            if sub not in branches:
                branches.append(sub)
        parts = [Exists(fresh, sub) for sub in branches]
        parts.append(ForAll(fresh, Or(tuple(branches))))
        return And(tuple(parts))

    return build(tuple(anchors), rank)


def game_rank_via_formulas(a: Structure, b: Structure, cap: int) -> int | None:
    """Minimum r such that the rank-r characteristic formula of `a`
    distinguishes it from `b`; equals the game value."""
    for r in range(1, cap + 1):
        if not evaluate(b, characteristic_formula(a, (), r)):
            return r
    return None


# ---------------------------------------------------------------------------
# Random generation (seeded by the callers).
# ---------------------------------------------------------------------------

def random_structure(vocab: Vocabulary, n: int, rng, density: float = 0.5) -> Structure:
    tables = []
    for _, arity in vocab.symbols:
        tables.append({t for t in itertools.product(range(n), repeat=arity)
                       if rng.random() < density})
    return Structure(vocab, n, tables)


def random_graph(n: int, rng, density: float = 0.5) -> Structure:
    from fid.structures import GRAPH_VOCAB
    table = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                table.add((i, j))
                table.add((j, i))
    return Structure(GRAPH_VOCAB, n, [table])


def random_formula(vocab: Vocabulary, rng, max_qr: int = 3, n_vars: int = 3):
    """Random closed formula with quantifier rank at most max_qr."""
    variables = [f"v{i}" for i in range(n_vars)]

    def body(depth: int, bound: list[str]):
        roll = rng.random()
        if depth >= max_qr or (bound and roll < 0.35):
            # quantifier-free leaf over bound variables
            if not bound or rng.random() < 0.25:
                return And(()) if rng.random() < 0.5 else Or(())
            name, arity = vocab.symbols[rng.randrange(len(vocab.symbols))]
            if rng.random() < 0.3 and len(bound) >= 2:
                x, y = rng.sample(bound, 2)
                return Eq(x, y)
            args = tuple(rng.choice(bound) for _ in range(arity))
            return Rel(name, args)
        if roll < 0.55:
            var = variables[len(bound) % n_vars]
            inner = body(depth + 1, bound + [var])
            return Exists(var, inner) if rng.random() < 0.5 else ForAll(var, inner)
        if roll < 0.7:
            return Not(body(depth, bound))
        parts = tuple(body(depth, bound) for _ in range(2))
        return And(parts) if rng.random() < 0.5 else Or(parts)

    return body(0, [])
