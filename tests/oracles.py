"""Independent reference implementations used as test oracles.

Everything here recomputes results by the most direct means available
(exhaustive permutation search, full tuple enumeration, ground expansion of
quantifiers) and deliberately shares no code with the library paths it is
used to check.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache, partial

from fid.equivalences import classes_of, transform_e
from fid.errors import CapExceeded
from fid.games import _TypeTable
from fid.invariants import DEFAULT_DELTA_CAP
from fid.logic import And, Eq, Exists, ForAll, Not, Or, Rel, evaluate, metrics
from fid.structures import (Structure, Vocabulary, _mask_of, canonical_key,
                            enumerate_structures, graph_complement)
from fid.synthesis import (SynthesisResult, complement_rewrite,
                           exceptional_graph, exceptional_graph_formula,
                           synth_delta, synth_naive_identify, synth_rho,
                           synth_sigma)
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


def brute_violated_tuple(a: Structure, b: Structure, mapping: dict[int, int],
                         new=None):
    """First (sym_idx, tup) over the mapping's keys, in itertools.product
    order (tuples containing `new` only, when given), whose membership in `a`
    differs from that of its image in `b`; None if there is none."""
    keys = list(mapping)
    for idx, (_, arity) in enumerate(a.vocab.symbols):
        for tup in itertools.product(keys, repeat=arity):
            if new is not None and new not in tup:
                continue
            if (tup in a.tables[idx]) != (tuple(mapping[e] for e in tup) in b.tables[idx]):
                return idx, tup
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


def brute_is_base(struct: Structure, cand) -> bool:
    rest = [e for e in range(struct.order) if e not in set(cand)]
    return all(brute_equiv_x(struct, cand, a, b) == brute_similar(struct, a, b)
               for a, b in itertools.combinations(rest, 2))


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


def burnside_count(vocab: Vocabulary, n: int, graph_mode: bool) -> int:
    """Number of isomorphism classes by Burnside's lemma: the average over
    all permutations of 2^(number of cycles the permutation makes on the bit
    positions). The positions are every tuple of every symbol, or every
    unordered loop-free pair in graph mode: the set `_bit_layout` orders."""
    if graph_mode:
        positions = [(0, (i, j)) for i in range(n) for j in range(i + 1, n)]
    else:
        positions = [(idx, tup) for idx, (_, arity) in enumerate(vocab.symbols)
                     for tup in itertools.product(range(n), repeat=arity)]
    total = 0
    perms = 0
    for perm in itertools.permutations(range(n)):
        perms += 1
        seen = set()
        cycles = 0
        for pos in positions:
            if pos in seen:
                continue
            cycles += 1
            while pos not in seen:
                seen.add(pos)
                idx, tup = pos
                img = tuple(perm[e] for e in tup)
                pos = (idx, tuple(sorted(img)) if graph_mode else img)
        total += 1 << cycles
    assert total % perms == 0
    return total // perms


# ---------------------------------------------------------------------------
# Plain game minimax.
# ---------------------------------------------------------------------------

def brute_legal_responses(a: Structure, b: Structure, seq1, seq2, side: int,
                          elem: int) -> list[int]:
    """Every reply in the other structure to `elem` in structure `side` after
    which the pebbled pairs keep their equality pattern and map every tuple
    through the new pair to one of the same truth value."""
    replies = []
    for reply in range((b.order, a.order)[side]):
        x, y = (elem, reply) if side == 0 else (reply, elem)
        if any((u == x) != (v == y) for u, v in zip(seq1, seq2)):
            continue
        if brute_violated_tuple(a, b, dict(zip(seq1 + (x,), seq2 + (y,))), x) is None:
            replies.append(reply)
    return replies


@lru_cache(maxsize=2)
def _brute_replies(a: Structure, b: Structure):
    """`brute_legal_responses` on one pair, memoized per position and move."""
    return lru_cache(maxsize=None)(partial(brute_legal_responses, a, b))


@lru_cache(maxsize=4)
def _brute_minimax(a: Structure, b: Structure, budget):
    """(wins, move_wins): wins(seq1, seq2, last, switches, r) says Spoiler
    forces a win within r rounds; move_wins(..., side, elem, r) says the move
    `elem` in structure `side` does. A memoized minimax over raw pebble
    sequences that tries every move and every reply, with no symmetry
    reduction. `budget` caps how often Spoiler may switch structures; a move
    that would exceed it never wins. The last few minimaxes are kept, so
    the positions of one pair and budget share one memo."""
    sizes = (a.order, b.order)
    counted = budget is not None
    replies = _brute_replies(a, b)

    def move_wins(seq1, seq2, last, switches, side, elem, r) -> bool:
        switched = last is not None and side != last
        if switched and counted and switches >= budget:
            return False
        for reply in replies(seq1, seq2, side, elem):
            x, y = (elem, reply) if side == 0 else (reply, elem)
            if not wins(seq1 + (x,), seq2 + (y,), side if counted else None,
                        switches + switched if counted else 0, r - 1):
                return False
        return True

    @lru_cache(maxsize=None)
    def wins(seq1, seq2, last, switches, r) -> bool:
        if r == 0:
            return False
        return any(move_wins(seq1, seq2, last, switches, side, elem, r)
                   for side in (0, 1) for elem in range(sizes[side]))

    return wins, move_wins


_ROOT = ((), (), None, 0)


def brute_game_rank(a: Structure, b: Structure, cap: int, budget=None,
                    start=_ROOT):
    """Least r <= cap in which Spoiler forces a win from the position
    `start` = (seq1, seq2, last, switches), the empty one by default, or
    None, by the plain minimax of `_brute_minimax`."""
    wins, _ = _brute_minimax(a, b, budget)
    return next((r for r in range(1, cap + 1) if wins(*start, r)), None)


def brute_winning_move(a: Structure, b: Structure, r: int, budget=None,
                       start=_ROOT):
    """The least (side, elem) with which Spoiler wins within r rounds from
    the position `start` = (seq1, seq2, last, switches), the empty one by
    default, or None, by the plain minimax of `_brute_minimax`."""
    _, move_wins = _brute_minimax(a, b, budget)
    return next(((side, elem) for side in (0, 1)
                 for elem in range((a.order, b.order)[side])
                 if move_wins(*start, side, elem, r)), None)


def brute_identification_rank(struct: Structure, alternations=None,
                              max_rounds=None, graph_mode: bool = False) -> int:
    """`identification_rank` as one cold call: a fresh enumeration of the
    rivals and a fresh type table that forgets each rival once it is ranked,
    so nothing carries over from an earlier call."""
    cap = max_rounds if max_rounds is not None else struct.order + 1
    own = canonical_key(struct, graph_mode)
    types = _TypeTable(struct.vocab)
    worst = 0
    for rival in enumerate_structures(struct.vocab, struct.order, graph_mode):
        if _mask_of(rival, graph_mode) == own:
            continue
        value = types.rank(struct, (), rival, (), cap, alternations)
        types.forget(rival)
        if value is None:
            raise CapExceeded(
                f"round cap {cap} exhausted against a non-isomorphic rival")
        worst = max(worst, value)
    return worst


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


def _subformulas(phi):
    yield phi
    if isinstance(phi, Not):
        yield from _subformulas(phi.child)
    elif isinstance(phi, (And, Or)):
        for child in phi.children:
            yield from _subformulas(child)
    elif isinstance(phi, (Exists, ForAll)):
        yield from _subformulas(phi.body)


def brute_metrics(phi) -> dict:
    """Every `FormulaMetrics` field, by name, from the set of nest strings
    (the quantifiers met on each root-to-leaf path, as E/A after negations)
    and the letters of the leading quantifiers."""
    def nests(node, flipped):
        if isinstance(node, Not):
            return nests(node.child, not flipped)
        if isinstance(node, (And, Or)) and node.children:
            return set().union(*(nests(c, flipped) for c in node.children))
        if isinstance(node, (Exists, ForAll)):
            letter = "E" if isinstance(node, Exists) != flipped else "A"
            return {letter + rest for rest in nests(node.body, flipped)}
        return {""}

    strings = nests(phi, False)
    letters, matrix = "", phi
    while isinstance(matrix, (Exists, ForAll)):
        letters += "E" if isinstance(matrix, Exists) else "A"
        matrix = matrix.body
    blocks = [letter for letter, _ in itertools.groupby(letters)]
    prenex = not any(isinstance(node, (Exists, ForAll)) for node in _subformulas(matrix))
    if not prenex:
        prefix_class = "non-prenex"
    elif not blocks:
        prefix_class = "Sigma_0"
    else:
        prefix_class = ("Sigma" if blocks[0] == "E" else "Pi") + f"_{len(blocks)}"
    existentials = sum(isinstance(node, Exists) for node in _subformulas(phi))
    universals = sum(isinstance(node, ForAll) for node in _subformulas(phi))
    return {"qr": max(map(len, strings)),
            "alt": max(sum(a != b for a, b in zip(s, s[1:])) for s in strings),
            "prefix_class": prefix_class,
            "is_bs": prenex and re.fullmatch("E*A*", letters) is not None,
            "quantifiers": existentials + universals,
            "existentials": existentials, "universals": universals}


def codegen_eval(phi, vocab: Vocabulary):
    """Compile a well-formed sentence into f(struct) -> bool: one generated
    Python expression, nested any/all over the universe, evaluated once.
    The reference for the library's model checker; it shares nothing with
    it but the formula classes."""
    sym_index = {name: i for i, (name, _) in enumerate(vocab.symbols)}
    counter = itertools.count()

    def gen(node, names):
        if isinstance(node, Rel):
            args = [names[a] for a in node.args]
            inner = ", ".join(args) + ("," if len(args) == 1 else "")
            return f"(({inner}) in T{sym_index[node.sym]})"
        if isinstance(node, Eq):
            return f"({names[node.left]} == {names[node.right]})"
        if isinstance(node, Not):
            return f"(not {gen(node.child, names)})"
        if isinstance(node, (And, Or)):
            if not node.children:
                return "True" if isinstance(node, And) else "False"
            joiner = " and " if isinstance(node, And) else " or "
            return "(" + joiner.join(gen(c, names) for c in node.children) + ")"
        fresh = f"v{next(counter)}"
        inner = gen(node.body, {**names, node.var: fresh})
        head = "any" if isinstance(node, Exists) else "all"
        return f"{head}({inner} for {fresh} in U)"

    params = ["U"] + [f"T{i}" for i in range(len(vocab.symbols))]
    source = f"lambda {', '.join(params)}: {gen(phi, {})}"
    fn = eval(compile(source, "<formula>", "eval"))  # noqa: S307 - our own codegen
    return lambda struct: fn(range(struct.order), *struct.tables)


# ---------------------------------------------------------------------------
# Per-rival verification.
# ---------------------------------------------------------------------------

def brute_verify_identifies(struct: Structure, phi, graph_mode: bool = False,
                            rivals=None):
    """`verify_identifies` as one `codegen_eval` evaluation per rival, skipping
    the rivals whose mask is the input's canonical key."""
    checker = codegen_eval(phi, struct.vocab)
    if not checker(struct):
        return VerificationVerdict(False, struct, 0, "same-order")
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
    """`verify_defines_up_to` as one `codegen_eval` evaluation per rival."""
    scope = f"up-to-{max_order}"
    checker = codegen_eval(phi, struct.vocab)
    if not checker(struct):
        return VerificationVerdict(False, struct, 0, scope)
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
# Graph synthesis by building every route.
# ---------------------------------------------------------------------------

_ROUTE_ORDER = {"sigma": 0, "delta": 1, "rho": 2, "naive-id": 3}


def brute_synth_graph(struct: Structure, cap: int = DEFAULT_DELTA_CAP):
    """`synth_graph` by building sigma, delta, rho on the shell and the naive
    diagram in full and keeping the fewest quantifiers (ties in that order).
    It shares the route builders with the library, not the selector: the
    shell route is kept when its built formula has at most two universals."""
    n = struct.order
    if n == 5:
        key = canonical_key(struct)
        phi = exceptional_graph_formula()
        if key == canonical_key(graph_complement(exceptional_graph())):
            phi = complement_rewrite(phi)
        elif key != canonical_key(exceptional_graph()):
            phi = None
        if phi is not None:
            return SynthesisResult(phi, "graph", metrics(phi), 4)
    grown = transform_e(struct, frozenset())
    shell = grown
    if len(grown) < n:
        shell |= {e for c in classes_of(struct, grown, 3).classes for e in c}
    candidates = [r for r in (synth_sigma(struct), synth_delta(struct, cap))
                  if r is not None]
    shell_rho = synth_rho(struct, shell, cap)
    if shell_rho.metrics.universals <= 2 or n <= 4:
        candidates.append(shell_rho)
    candidates.append(synth_naive_identify(struct))
    best = min(candidates,
               key=lambda r: (r.metrics.quantifiers, _ROUTE_ORDER[r.method]))
    claimed = n - 1 if n >= 5 else int(Fraction(3 * n, 4) + Fraction(3, 2))
    return SynthesisResult(best.formula, "graph", best.metrics, claimed)


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


def random_formula(vocab: Vocabulary, rng, max_qr: int = 3, n_vars: int = 3,
                   free: tuple[str, ...] = ()):
    """Random formula with quantifier rank at most max_qr, closed except for
    the variables in `free`. Quantifiers bind v0, v1, ... cyclically, from
    v{len(free)} on, so they rebind a free variable named v<i>."""
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

    return body(0, list(free))
