"""Exact Ehrenfeucht game solving and the phased Spoiler strategy.

Every game value comes from rank-r types: the pebble tuples of both
structures are hash-consed bottom-up into one table of ints, and no
automorphism group is listed. A plain value is the least rank at which the
two sides' types differ. A switch-budgeted value (and every winning move)
comes from a memoized minimax that runs on pairs of type ids instead of
pebble sequences: Spoiler picks a child type on one side, and Duplicator's
replies are the other side's child types with the same type_0. A pair of
type ids is a sound memo key, because the outcome from a live position is
a function of the two tuples' types, the side played last, the switches
spent and the rounds left: a type holds its own type_0 and the set of its
children's types, which is all the recursion reads. Equal types are a
finer collapse than orbits under automorphisms, and the memo is shared
across calls of one corpus: `identification_rank` keeps the rivals of the
last (vocabulary, order, graph mode) whose corpus is small enough, and one
type table for them, so calls that share a corpus must not run in two
threads at once. One reply test decides every move on elements: a pebbled
element must be answered by its partner, a fresh one by an unpebbled
element that breaks no tuple through the new pair (`violated_tuple`). The
test suite checks the replies, the values and the winning moves against
independent oracles in tests/oracles.py.

The phased strategy is a stateful move generator: it pins the decomposition
layers of the smaller structure, watches for threatening pairs, recovers
from them by pebbling a violated tuple, and finishes with a case split on
how the class partitions of the two structures line up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .equivalences import base_decomposition, classes_of
from .errors import (CapExceeded, FidError, InputError, UnsupportedPosition,
                     check)
from .structures import (Structure, _bit_layout, _mask_of, canonical_key,
                         enumerate_structures, is_partial_isomorphism,
                         isomorphic, violated_tuple)
# bench/tracing.py wraps this name; a missing one marks a traced run incorrect.
from .structures import automorphisms  # noqa: F401

DEFAULT_ROUND_CAP = 12


def _extend(seq1, seq2, side: int, elem: int, reply: int):
    """The position after Spoiler pebbles `elem` in structure `side` and
    Duplicator answers `reply` in the other."""
    if side == 0:
        return seq1 + (elem,), seq2 + (reply,)
    return seq1 + (reply,), seq2 + (elem,)


class _TypeTable:
    """Rank-r types of pebble tuples over one vocabulary, interned to ints
    that every structure the table sees shares:

    - type_0(s + (a,)) = (type_0(s), the truth of every symbol on the
      position tuples of s + (a,) that use its last position);
    - type_r(s) = (type_0(s), the set of type_{r-1}(s + (a,)), a unpebbled).

    Duplicator survives r rounds from a live position exactly when its two
    tuples have equal rank-r types (Ehrenfeucht-Fraisse; Libkin, Elements of
    Finite Model Theory, ch. 3). Pebbling a pebbled element adds nothing,
    since type_r determines type_{r-1}, so a live position that repeats a
    pebble is typed like the one without the repeat. Level 1 keeps the
    children's atoms in place of their type_0: with the parent's type_0
    they determine it. Each structure's memo is keyed by the structure
    and dropped by `forget`; the ids, their keys and the memo of `wins`
    serve every structure."""

    def __init__(self, vocab):
        self._vocab = vocab
        self._ids: dict = {}
        self._keys: list = []              # id - 1 -> key
        self._memos: dict[Structure, list[dict]] = {}
        self._getters: list[tuple] = []   # per last position k
        self._wins: dict = {}

    def _intern(self, key) -> int:
        # Ids start at 1: `_type` reads a falsy memo lookup as a miss.
        found = self._ids.get(key)
        if found is None:
            self._keys.append(key)
            found = self._ids[key] = len(self._keys)
        return found

    def _atoms(self, tables, seq: tuple) -> tuple[bool, ...]:
        k = len(seq) - 1
        while len(self._getters) <= k:
            j = len(self._getters)
            self._getters.append(tuple(
                (idx, itemgetter(*tup) if arity > 1 else itemgetter(slice(j, j + 1)))
                for idx, (_, arity) in enumerate(self._vocab.symbols)
                for tup in itertools.product(range(j + 1), repeat=arity) if j in tup))
        return tuple(get(seq) in tables[idx] for idx, get in self._getters[k])

    def _zero(self, tables, zero: dict, seq: tuple) -> int:
        found = zero.get(seq)
        if found is None:
            found = zero[seq] = self._intern(
                (self._zero(tables, zero, seq[:-1]), self._atoms(tables, seq)))
        return found

    def _type(self, struct: Structure, levels: list[dict], seq: tuple, r: int) -> int:
        level = levels[r]
        found = level.get(seq)
        if found is None:
            tables = struct.tables
            fresh = [seq + (a,) for a in range(struct.order) if a not in seq]
            if r == 1:
                kids = frozenset(self._atoms(tables, child) for child in fresh)
            else:
                below = levels[r - 1]
                kids = frozenset(below.get(child) or
                                 self._type(struct, levels, child, r - 1)
                                 for child in fresh)
            found = level[seq] = self._intern(
                (self._zero(tables, levels[0], seq), kids))
        return found

    def type_of(self, struct: Structure, seq: tuple, r: int) -> int:
        """The rank-r type of `seq` in `struct`, for r >= 1."""
        levels = self._memos.get(struct)
        if levels is None:
            levels = self._memos[struct] = [{(): self._intern(())}]
        levels.extend({} for _ in range(r + 1 - len(levels)))
        return self._type(struct, levels, seq, r)

    def children(self, struct: Structure, seq: tuple, r: int) -> dict:
        """The kids of type_r(seq) by unpebbled element, ascending: the
        type_{r-1} of seq + (a,), or its atoms at r = 1."""
        fresh = [a for a in range(struct.order) if a not in seq]
        if r == 1:
            return {a: self._atoms(struct.tables, seq + (a,)) for a in fresh}
        return {a: self.type_of(struct, seq + (a,), r - 1) for a in fresh}

    def _replies(self, kids, r: int):
        """Duplicator's answers among `kids` (of rank-r types) by the type_0
        they must match; at r = 1 a kid is its own atoms."""
        if r == 1:
            return frozenset(kids)
        by_zero: dict[int, list[int]] = {}
        for kid in set(kids):
            by_zero.setdefault(self._keys[kid - 1][0], []).append(kid)
        return by_zero

    def winning(self, kids, last: int | None, switches: int,
                budget: int | None, r: int):
        """Yield (side, kid) for each kid of kids[side], side 0 first and in
        order, whose move wins within r rounds: the move pebbles in `side`
        an element whose child type is `kid`, and every reply of the same
        type_0 among kids[1 - side] leaves a position Spoiler wins."""
        for side in (0, 1):
            switched = last is not None and side != last
            if switched and budget is not None and switches >= budget:
                continue
            replies = self._replies(kids[1 - side], r)
            for kid in kids[side]:
                if r == 1:
                    won = kid not in replies
                else:
                    won = all(
                        self.wins(*((kid, d) if side == 0 else (d, kid)), side,
                                  switches + switched, budget, r - 1)
                        for d in replies.get(self._keys[kid - 1][0], ()))
                if won:
                    yield side, kid

    def wins(self, t1: int, t2: int, last: int | None, switches: int,
             budget: int | None, r: int) -> bool:
        """Whether Spoiler wins within r rounds from a live position whose
        tuples have the rank-r types t1 and t2, having last played in
        structure `last` and switched `switches` times of at most `budget`.
        Elements of equal type have equal outcomes, so a pair of ids is a
        sound memo key; equal types, budget or not, are a Duplicator win."""
        if budget is None or t1 == t2:
            return t1 != t2
        key = (t1, t2, last, switches, budget, r)
        found = self._wins.get(key)
        if found is None:
            kids = (self._keys[t1 - 1][1], self._keys[t2 - 1][1])
            found = self._wins[key] = next(
                self.winning(kids, last, switches, budget, r), None) is not None
        return found

    def rank(self, m1: Structure, seq1: tuple, m2: Structure, seq2: tuple,
             cap: int, budget: int | None = None, last: int | None = None,
             switches: int = 0) -> int | None:
        """The least r in 1..cap in which Spoiler wins from the live
        position (seq1, seq2), or None; without a budget, the least r at
        which the two tuples' types differ."""
        return next((r for r in range(1, cap + 1)
                     if self.wins(self.type_of(m1, seq1, r),
                                  self.type_of(m2, seq2, r),
                                  last, switches, budget, r)), None)

    def forget(self, struct: Structure):
        self._memos.pop(struct, None)


class GameSolver:
    """Exact game values for one structure pair, from one type table.
    `position_rank` and `winning_move` take live positions only, as every
    caller passes: the positions of a game still in progress."""

    def __init__(self, m1: Structure, m2: Structure):
        if m1.vocab != m2.vocab:
            raise InputError("game needs structures over the same vocabulary")
        self.m1, self.m2 = m1, m2
        self._types = _TypeTable(m1.vocab)

    # -- position mechanics -------------------------------------------------

    def extension_ok(self, phi: dict[int, int], a: int, b: int) -> bool:
        """Whether the partial isomorphism `phi` (m1 to m2) extended by a -> b
        stays one; a is outside its domain and b outside its range."""
        return violated_tuple(self.m1, self.m2, {**phi, a: b}, a) is None

    def legal_responses(self, seq1, seq2, side: int, elem: int) -> list[int]:
        """All elements of the other structure keeping the position alive:
        the partner of a pebbled element, else every unpebbled element whose
        pair with `elem` breaks no tuple through it. The pebble map runs from
        Spoiler's structure to the other, so one test serves both sides."""
        here, there = (self.m1, self.m2) if side == 0 else (self.m2, self.m1)
        mapping = dict(zip(seq1, seq2) if side == 0 else zip(seq2, seq1))
        if elem in mapping:
            ok = violated_tuple(here, there, mapping, elem) is None
            return [mapping[elem]] if ok else []
        pebbled = set(mapping.values())
        replies = []
        for w in range(there.order):
            if w not in pebbled:
                mapping[elem] = w
                if violated_tuple(here, there, mapping, elem) is None:
                    replies.append(w)
        return replies

    # -- values -------------------------------------------------------------

    def position_rank(self, seq1, seq2, cap: int, budget: int | None = None,
                      last: int | None = None, switches: int = 0) -> int | None:
        """Minimum number of further rounds Spoiler needs from a live
        position, or None beyond cap."""
        return self._types.rank(self.m1, tuple(seq1), self.m2, tuple(seq2), cap,
                                budget, last, switches)

    def winning_move(self, seq1, seq2, r: int, budget=None, last=None,
                     switches: int = 0):
        """The least Spoiler move (side, elem), side 0 first, that wins
        within r rounds from a live position, or None. Pebbling a pebbled
        element never wins: its partner answers it."""
        if r < 1:
            return None
        kids = (self._types.children(self.m1, tuple(seq1), r),
                self._types.children(self.m2, tuple(seq2), r))
        for side, kid in self._types.winning([list(k.values()) for k in kids],
                                             last, switches, budget, r):
            return side, min(e for e, k in kids[side].items() if k == kid)
        return None


def distinguishing_rank(m1: Structure, m2: Structure,
                        max_rounds: int = DEFAULT_ROUND_CAP) -> int | None:
    """Exact game value: minimum rounds in which Spoiler can force a win.
    None when the cap is exhausted, and at once for isomorphic inputs, whose
    types agree at every rank."""
    return _root_value(m1, m2, max_rounds, None)


def distinguishing_rank_alt(m1: Structure, m2: Structure, alternations: int,
                            max_rounds: int = DEFAULT_ROUND_CAP) -> int | None:
    """Game value when Spoiler may switch structures at most `alternations`
    times. Non-increasing in the budget and never below the plain value, so
    None at once for isomorphic inputs too."""
    if alternations < 0:
        raise InputError("alternation budget must be non-negative")
    return _root_value(m1, m2, max_rounds, alternations)


def _root_value(m1: Structure, m2: Structure, max_rounds: int,
                budget: int | None) -> int | None:
    solver = GameSolver(m1, m2)
    if isomorphic(m1, m2):
        return None
    return solver.position_rank((), (), max_rounds, budget=budget)


# The last rival corpus small enough to keep, as ((vocab, order,
# graph_mode), (rivals, types)): a dict from staged mask to structure, in
# enumeration order, and one type table whose per-rival memos and `wins`
# memo serve every call with that key. Rank-r types refine the corpus
# monotonically, so the types one call builds are the ones the next call of
# that order reads.
_last_corpus: tuple = (None, None)

# A corpus is kept when 2^width / n!, a lower bound on its class count that
# is known before the enumeration, is at most this. Graphs up to order 7
# (1,044 classes) and order-4 digraphs (3,044) are kept; `P/1 E/2` at order
# 4 (45,960 classes, about 55 MB of structures alone) is streamed instead.
HELD_CORPUS_CLASSES = 1 << 12


def _corpus(vocab, order: int, graph_mode: bool) -> tuple[dict | None, _TypeTable]:
    """The kept rivals of (vocab, order, graph_mode) and their type table,
    or None and a fresh table when the corpus is too large to keep."""
    global _last_corpus
    key = (vocab, order, graph_mode)
    if _last_corpus[0] != key:
        width = len(_bit_layout(vocab, order, graph_mode)[0])
        if (1 << width) // math.factorial(order) > HELD_CORPUS_CLASSES:
            return None, _TypeTable(vocab)
        rivals = {_mask_of(rival, graph_mode): rival
                  for rival in enumerate_structures(vocab, order, graph_mode)}
        _last_corpus = (key, (rivals, _TypeTable(vocab)))
    return _last_corpus[1]


def identification_rank(struct: Structure, alternations: int | None = None,
                        max_rounds: int | None = None,
                        graph_mode: bool = False) -> int:
    """Worst game value against any non-isomorphic structure of the same
    order: the semantic identification cost. Game values do not change
    under relabelling, so a kept corpus ranks the input's class
    representative, whose types the corpus holds. Calls that share a corpus
    must not run in two threads at once."""
    if alternations is not None and alternations < 0:
        raise InputError("alternation budget must be non-negative")
    cap = max_rounds if max_rounds is not None else struct.order + 1
    own = canonical_key(struct, graph_mode)
    held, types = _corpus(struct.vocab, struct.order, graph_mode)
    if held is None:
        # streamed through this call's table; each rival is forgotten after
        # its game, so memory stays flat however large the corpus
        rep, rivals = struct, ((_mask_of(rival, graph_mode), rival)
                               for rival in enumerate_structures(
                                   struct.vocab, struct.order, graph_mode))
    else:
        rep, rivals = held[own], held.items()
    worst = 0
    for mask, rival in rivals:
        if mask == own:
            continue
        value = types.rank(rep, (), rival, (), cap, alternations)
        if held is None:
            types.forget(rival)
        if value is None:
            raise CapExceeded(
                f"round cap {cap} exhausted against a non-isomorphic rival")
        worst = max(worst, value)
    return worst


# ---------------------------------------------------------------------------
# Play-out harness.
# ---------------------------------------------------------------------------

@dataclass
class Transcript:
    moves: list[tuple[int, int, int, int]]  # (round, side, element, response)
    outcome: str                            # "spoiler" | "duplicator"
    win_round: int | None
    alternations: int


class OptimalDuplicator:
    """Responds so as to maximize the number of further rounds survived
    against an optimal unrestricted Spoiler; ties broken by least element."""

    def __init__(self, solver: GameSolver, horizon: int):
        self.solver = solver
        self.horizon = horizon

    def respond(self, seq1, seq2, side: int, elem: int) -> int | None:
        seq1, seq2 = tuple(seq1), tuple(seq2)
        best_w, best_value = None, -1
        for w in self.solver.legal_responses(seq1, seq2, side, elem):
            value = self.solver.position_rank(*_extend(seq1, seq2, side, elem, w),
                                              self.horizon)
            score = self.horizon + 1 if value is None else value
            if score > best_value:
                best_w, best_value = w, score
        return best_w


def play_out(spoiler, m1: Structure, m2: Structure,
             max_rounds: int = DEFAULT_ROUND_CAP,
             duplicator: OptimalDuplicator | None = None) -> Transcript:
    """Run a Spoiler strategy object against the optimal Duplicator."""
    solver = GameSolver(m1, m2)
    dup = duplicator or OptimalDuplicator(solver, max_rounds)
    seq1: tuple[int, ...] = ()
    seq2: tuple[int, ...] = ()
    moves = []
    outcome, win_round = "duplicator", None
    for rnd in range(1, max_rounds + 1):
        side, elem = spoiler.next_move()
        response = dup.respond(seq1, seq2, side, elem)
        if response is None:
            moves.append((rnd, side, elem, -1))
            outcome, win_round = "spoiler", rnd
            break
        moves.append((rnd, side, elem, response))
        seq1, seq2 = _extend(seq1, seq2, side, elem, response)
        spoiler.observe(side, elem, response)
    alternations = sum(1 for before, after in zip(moves, moves[1:])
                       if before[1] != after[1])
    return Transcript(moves, outcome, win_round, alternations)


class SolverSpoiler:
    """Optimal Spoiler driven directly by the solver (reference strategy)."""

    def __init__(self, m1: Structure, m2: Structure, cap: int = DEFAULT_ROUND_CAP):
        self.solver = GameSolver(m1, m2)
        self.cap = cap
        self.seq1: tuple[int, ...] = ()
        self.seq2: tuple[int, ...] = ()

    def next_move(self):
        r = self.solver.position_rank(self.seq1, self.seq2, self.cap)
        if r is None:
            raise FidError("no forced win within the cap")
        move = self.solver.winning_move(self.seq1, self.seq2, r)
        if move is None:
            raise FidError(f"solver spoiler: no winning move at the solved rank {r}")
        return move

    def observe(self, side: int, elem: int, response: int):
        self.seq1, self.seq2 = _extend(self.seq1, self.seq2, side, elem, response)


# ---------------------------------------------------------------------------
# The phased strategy.
# ---------------------------------------------------------------------------

@dataclass
class _Recovery:
    level: int
    queue: list[tuple[int, int, int]]  # (side, element, expected partner)


class PhasedSpoiler:
    """Stateful Spoiler playing the layered-decomposition strategy on m1.

    Plays in m1 throughout the layer phases, with at most one switch to m2
    in the lookahead or concluding steps. Raises UnsupportedPosition in the
    one case the strategy's bound may legitimately fail: structures of
    different orders whose concluding comparison leaves a single useful
    class.
    """

    def __init__(self, m1: Structure, m2: Structure,
                 lookahead_cap: int | None = None):
        if m1.vocab != m2.vocab:
            raise InputError("strategy needs structures over one vocabulary")
        if m1.order > m2.order:
            raise InputError("the strategy pins the smaller structure first")
        self.m1, self.m2 = m1, m2
        self.k = m1.vocab.max_arity
        self.n = m1.order
        self.decomp = base_decomposition(m1)
        self.solver = GameSolver(m1, m2)
        self.lookahead = lookahead_cap if lookahead_cap is not None else self.k
        self.seq1: tuple[int, ...] = ()
        self.seq2: tuple[int, ...] = ()
        self.phis: list[dict[int, int]] = [{}]  # phis[i] covers layer i
        self.completed = 0
        self.side_now = 0
        self.alternated = False
        self.queue: list[tuple[int, int, int | None]] = []
        self.recovery: _Recovery | None = None
        self.state = "naive" if self.n <= self.k + 1 else "phase1"
        self.part2_target: int | None = None
        if self.state == "phase1":
            self._enqueue_phase1()
        else:
            self.queue = [(0, e, None) for e in range(self.n)]

    # -- bookkeeping ---------------------------------------------------------

    def _layer(self, i: int) -> frozenset[int]:
        return self.decomp.x[i - 1]

    def threat_level(self, a: int, b: int) -> int | None:
        """Smallest completed layer at which the pair sits outside both sides
        yet fails the one-point extension test."""
        for i in range(1, self.completed + 1):
            phi = self.phis[i]
            if a in phi or b in phi.values():
                continue
            if not self.solver.extension_ok(phi, a, b):
                return i
        return None

    # -- phase scheduling ----------------------------------------------------

    def _enqueue_phase1(self):
        self.queue = [(0, e, None) for e in sorted(self._layer(1))]

    def _enqueue_class_phase(self, j: int):
        """Part 1 of the phase that settles layer j+1."""
        xj = self._layer(j)
        moves: list[tuple[int, int, int | None]] = []
        if len(xj) < self.n:
            for cls in classes_of(self.m1, xj, self.k + 1).classes:
                for e in cls[:-1]:
                    moves.append((0, e, None))
        fresh = self._layer(j + 1) - xj - self.decomp.y[j - 1]
        moves.extend((0, e, None) for e in sorted(fresh))
        self.queue = moves

    def _pair_classes(self, phi, classes1, classes2) -> dict:
        """Greedy class pairing: each m1 class takes the first untaken m2
        class whose least element extends `phi` together with its own."""
        pairing: dict[tuple[int, ...], tuple[int, ...]] = {}
        taken = set()
        for cls in classes1:
            partner = next((cand for cand in classes2 if cand not in taken
                            and self.solver.extension_ok(phi, cls[0], cand[0])),
                           None)
            if partner is not None:
                pairing[cls] = partner
                taken.add(partner)
        return pairing

    def _finish_phase(self, i: int):
        """Compute the layer-i partial isomorphism and check its structure."""
        if i == 1:
            phi = {a: b for a, b in zip(self.seq1, self.seq2) if a in self._layer(1)}
            check(set(phi) == set(self._layer(1)),
                  "phase 1: the pebbles do not cover layer 1")
        else:
            prev = self.phis[i - 1]
            phi = dict(prev)
            pebbled = dict(zip(self.seq1, self.seq2))
            xj = self._layer(i - 1)
            x2j = frozenset(prev.values())
            small1 = classes_of(self.m1, xj, self.k + 1).classes \
                if len(xj) < self.n else ()
            small2 = classes_of(self.m2, x2j, self.k + 1).classes \
                if len(x2j) < self.m2.order else ()
            pairing = self._pair_classes(prev, small1, small2)
            for cls in small1:
                partner = pairing.get(cls, ())
                check(len(partner) == len(cls), f"phase {i}: small-class "
                      "correspondence failed despite quiet lookahead")
                image = [pebbled[e] for e in cls[:-1]]
                check(all(b in partner for b in image), f"phase {i}: pebbled "
                      "class members strayed from the partner class")
                leftover = [b for b in partner if b not in image]
                check(len(leftover) == 1, f"phase {i}: the partner class "
                      f"leaves {len(leftover)} members unpebbled, not 1")
                for e in cls[:-1]:
                    phi[e] = pebbled[e]
                phi[cls[-1]] = leftover[0]
            for a, b in pebbled.items():
                if a in self._layer(i) and a not in phi:
                    phi[a] = b
            check(set(phi) == set(self._layer(i)), f"phase {i}: the layer map "
                  f"covers {sorted(phi)}, not layer {sorted(self._layer(i))}")
            check(is_partial_isomorphism(self.m1, self.m2, phi),
                  f"phase {i}: layer extension is not a partial isomorphism")
        self.phis.append(phi)
        self.completed = i

    # -- lookahead -----------------------------------------------------------

    def _budget_state(self):
        budget = 0 if self.alternated else 1
        return budget, self.side_now

    def _try_forced_win(self) -> bool:
        budget, last = self._budget_state()
        rank = self.solver.position_rank(self.seq1, self.seq2, self.lookahead,
                                         budget=budget, last=last)
        if rank is None:
            return False
        self.part2_target = rank
        self.state = "forced-win"
        return True

    def _force_threat_move(self, depth: int, seq1, seq2, last, switched):
        """A move after which every Duplicator reply yields a threatening
        pair, a lost position, or (recursively) the same within depth."""
        for side in (0, 1):
            if side != last and switched:
                continue
            n_here = self.n if side == 0 else self.m2.order
            for elem in range(n_here):
                if elem in (seq1 if side == 0 else seq2):
                    continue
                for w in self.solver.legal_responses(seq1, seq2, side, elem):
                    ns1, ns2 = _extend(seq1, seq2, side, elem, w)
                    if self.threat_level(ns1[-1], ns2[-1]) is None and (
                            depth <= 1 or self._force_threat_move(
                                depth - 1, ns1, ns2, side,
                                switched or side != last) is None):
                        break
                else:
                    return side, elem
        return None

    # -- recovery ------------------------------------------------------------

    def _start_recovery(self, level: int, pair: tuple[int, int]):
        a, b = pair
        phi = self.phis[level]
        ext = {**phi, a: b}
        found = violated_tuple(self.m1, self.m2, {e: ext[e] for e in sorted(ext)}, a)
        if found is None:
            raise FidError(f"recovery at layer {level}: threatening pair {pair} "
                           "without a violated tuple")
        _, witness = found
        pebbled1 = set(self.seq1)
        missing = sorted(set(witness) - {a} - pebbled1)
        queue = []
        for e in missing:
            if self.side_now == 0 or not self.alternated:
                queue.append((0, e, phi[e]))
            else:
                queue.append((1, phi[e], e))
        self.recovery = _Recovery(level, queue)
        self.state = "recovery"

    # -- protocol ------------------------------------------------------------

    def next_move(self) -> tuple[int, int]:
        while True:
            if self.state == "recovery":
                if not self.recovery.queue:
                    raise FidError("recovery exhausted without a win")
                return self.recovery.queue[0][:2]
            if self.queue:
                return self.queue[0][:2]
            self._advance()

    def observe(self, side: int, elem: int, response: int):
        if side != self.side_now:
            self.alternated = True
            self.side_now = side
        self.seq1, self.seq2 = _extend(self.seq1, self.seq2, side, elem, response)
        pair = (self.seq1[-1], self.seq2[-1])
        if self.state == "recovery":
            rec = self.recovery
            qside, qelem, expected = rec.queue.pop(0)
            check((qside, qelem) == (side, elem), f"recovery: observed move "
                  f"{(side, elem)} is not the queued {(qside, qelem)}")
            if response != expected:
                level = self.threat_level(*pair)
                check(level is not None and level < rec.level,
                      "recovery: deviation did not lower the threat level")
                self._start_recovery(level, pair)
            return
        if self.queue and self.queue[0][:2] == (side, elem):
            self.queue.pop(0)
        if self.state in ("phase1", "classes", "conclude", "forced-threat"):
            level = self.threat_level(*pair)
            if level is not None:
                self.queue = []
                self._start_recovery(level, pair)
                return
        if self.state == "forced-win":
            self.part2_target = max(1, self.part2_target - 1)

    # -- state machine -------------------------------------------------------

    def _advance(self):
        if self.state == "naive":
            # All of m1 is pebbled; for a strictly larger m2 one further
            # selection there runs the injective correspondence dry.
            extra = [e for e in range(self.m2.order) if e not in self.seq2]
            if extra:
                self.queue = [(1, extra[0], None)]
                return
            raise FidError("naive pebbling exhausted without a win")
        if self.state == "phase1":
            self._finish_phase(1)
            self.state = "classes"
            self.phase_j = 1
            self._enqueue_class_phase(1)
            return
        if self.state == "classes":
            if self._try_forced_win():
                return
            move = self._force_threat_move(self.lookahead, self.seq1, self.seq2,
                                           self.side_now, self.alternated)
            if move is not None:
                self.state = "forced-threat"
                self.threat_depth = self.lookahead
                self.queue = [(move[0], move[1], None)]
                return
            self._finish_phase(self.phase_j + 1)
            if self.phase_j + 1 <= self.k:
                self.phase_j += 1
                self._enqueue_class_phase(self.phase_j)
            else:
                self.state = "conclude"
                self._enqueue_conclusion()
            return
        if self.state == "forced-win":
            budget, last = self._budget_state()
            move = self.solver.winning_move(self.seq1, self.seq2, self.part2_target,
                                            budget=budget, last=last)
            if move is None:
                raise FidError("forced win evaporated")
            self.queue = [(move[0], move[1], None)]
            return
        if self.state == "forced-threat":
            self.threat_depth -= 1
            if self.threat_depth <= 0:
                raise FidError("forced threat evaporated")
            move = self._force_threat_move(self.threat_depth, self.seq1, self.seq2,
                                           self.side_now, self.alternated)
            if move is None:
                raise FidError("forced threat evaporated")
            self.queue = [(move[0], move[1], None)]
            return
        if self.state == "conclude":
            if self._try_forced_win():
                return
            raise FidError("concluding phase ran out of prepared moves")
        raise FidError(f"unhandled strategy state {self.state}")

    def _enqueue_conclusion(self):
        k = self.k
        phi_k = self.phis[k]
        xk = self._layer(k)
        xk2 = frozenset(phi_k.values())
        cls1 = classes_of(self.m1, xk).classes if len(xk) < self.n else ()
        cls2 = classes_of(self.m2, xk2).classes if len(xk2) < self.m2.order else ()
        pairing = self._pair_classes(phi_k, cls1, cls2)
        unmatched1 = [c for c in cls1 if c not in pairing]
        unmatched2 = [c for c in cls2 if c not in pairing.values()]

        if unmatched1 or unmatched2:
            if unmatched1:
                self.queue = [(0, min(unmatched1[0]), None)]
            else:
                self.queue = [(1, min(unmatched2[0]), None)]
            return

        useful = [c for c in cls1 if len(pairing[c]) != len(c)]
        if not useful:
            check(self.n == self.m2.order, "conclusion: a perfect "
                  "size-preserving pairing needs equal orders")
            self._enqueue_upsilon(pairing)
            return
        if len(useful) == 1 and self.n < self.m2.order:
            raise UnsupportedPosition(
                "single useful class against a larger structure")
        z = self.decomp.z
        eligible = [c for c in useful if 2 * len(c) <= len(z)] or useful
        chosen = min(eligible, key=min)
        partner = pairing[chosen]
        count = min(len(chosen), len(partner)) + 1
        if len(chosen) >= len(partner):
            self.queue = [(0, e, None) for e in sorted(chosen)[:count]]
        else:
            self.queue = [(1, e, None) for e in sorted(partner)[:count]]

    def _enqueue_upsilon(self, pairing):
        """Concluding move block: pin a tuple on which any class-respecting
        extension of the layer map disagrees between the structures."""
        phi_k1 = self.phis[self.k + 1]
        back = {b: a for a, b in phi_k1.items()}
        for cls, partner in pairing.items():
            for src, dst in zip(sorted(partner), sorted(cls)):
                if src not in back:
                    back[src] = dst
        check(len(back) == self.m2.order, "conclusion: the upsilon extension "
              "is not total")
        found = violated_tuple(self.m2, self.m1, {e: back[e] for e in sorted(back)})
        if found is None:
            raise FidError("conclusion: class-respecting extension turned out "
                           "to be an isomorphism")
        _, witness = found
        pebbled2 = set(self.seq2)
        self.queue = [(1, e, None) for e in sorted(set(witness) - pebbled2)]
        check(bool(self.queue), "conclusion: the concluding witness is already "
              "fully pebbled")
