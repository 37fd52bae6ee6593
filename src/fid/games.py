"""Exact Ehrenfeucht game solving and the phased Spoiler strategy.

The solver computes exact minimax game values (plain and switch-budgeted)
by memoized search. Two kinds of pruning keep desk-scale pairs tractable,
both justified by automorphisms alone: candidate moves are restricted to
orbit representatives under the stabilizer of the already-pebbled elements,
and memo keys canonicalize pebble sequences under each structure's full
automorphism group (up to CANON_LIMIT automorphisms). The test suite checks
the search against an independent plain minimax in tests/oracles.py.

The phased strategy is a stateful move generator: it pins the decomposition
layers of the smaller structure, watches for threatening pairs, recovers
from them by pebbling a violated tuple, and finishes with a case split on
how the class partitions of the two structures line up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .equivalences import base_decomposition, classes_of
from .errors import CapExceeded, FidError, InputError, UnsupportedPosition
from .structures import (Structure, _mask_of, automorphisms, canonical_key,
                         enumerate_structures, extends, is_partial_isomorphism)

DEFAULT_ROUND_CAP = 12
# Memo keys are canonicalized under automorphism groups up to this size.
CANON_LIMIT = 5000


def _orbit_reps(n: int, stabilizer: list[tuple[int, ...]]) -> list[int]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in stabilizer:
        for e in range(n):
            a, b = find(e), find(perm[e])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return sorted({find(e) for e in range(n)})


class GameSolver:
    """Exact game values for one structure pair, with shared memoization."""

    def __init__(self, m1: Structure, m2: Structure):
        if m1.vocab != m2.vocab:
            raise InputError("game needs structures over the same vocabulary")
        self.m1, self.m2 = m1, m2
        self.aut1 = automorphisms(m1)
        self.aut2 = automorphisms(m2)
        self._memo: dict = {}

    # -- position mechanics -------------------------------------------------

    def extension_ok(self, seq1, seq2, a: int, b: int) -> bool:
        """Equality pattern plus relation preservation for the new pair."""
        for x, y in zip(seq1, seq2):
            if (x == a) != (y == b):
                return False
        mapping = dict(zip(seq1, seq2))
        mapping[a] = b
        return extends(self.m1, self.m2, mapping, a)

    def legal_responses(self, seq1, seq2, side: int, elem: int) -> list[int]:
        """All elements of the other structure keeping the position alive."""
        if side == 0:
            if elem in seq1:
                forced = seq2[seq1.index(elem)]
                return [forced] if self.extension_ok(seq1, seq2, elem, forced) else []
            other_n = self.m2.order
            return [w for w in range(other_n)
                    if self.extension_ok(seq1, seq2, elem, w)]
        if elem in seq2:
            forced = seq1[seq2.index(elem)]
            return [forced] if self.extension_ok(seq1, seq2, forced, elem) else []
        return [w for w in range(self.m1.order)
                if self.extension_ok(seq1, seq2, w, elem)]

    def _stab(self, aut, seq):
        return [p for p in aut if all(p[e] == e for e in seq)]

    def _canon(self, aut, seq):
        if len(aut) > CANON_LIMIT:
            return seq
        return min(tuple(p[e] for e in seq) for p in aut)

    # -- minimax ------------------------------------------------------------

    def _wins(self, seq1, seq2, stab1, stab2, last, switches, budget, r) -> bool:
        if r <= 0:
            return False
        key = (self._canon(self.aut1, seq1), self._canon(self.aut2, seq2),
               last if budget is not None else None,
               switches if budget is not None else 0, budget, r)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = False
        for side in (0, 1):
            if last is not None and side != last and budget is not None \
                    and switches >= budget:
                continue
            new_switches = switches + (1 if last is not None and side != last else 0)
            n_here = self.m1.order if side == 0 else self.m2.order
            stab = stab1 if side == 0 else stab2
            seq = seq1 if side == 0 else seq2
            candidates = [e for e in _orbit_reps(n_here, stab) if e not in seq]
            for elem in candidates:
                responses = self.legal_responses(seq1, seq2, side, elem)
                if not responses:
                    result = True
                    break
                if r == 1:
                    continue
                other_stab = stab2 if side == 0 else stab1
                reps = set(_orbit_reps(self.m2.order if side == 0 else self.m1.order,
                                       other_stab))
                responses = [w for w in responses if w in reps]
                all_win = True
                for w in responses:
                    if side == 0:
                        ns1, ns2 = seq1 + (elem,), seq2 + (w,)
                    else:
                        ns1, ns2 = seq1 + (w,), seq2 + (elem,)
                    if not self._wins(ns1, ns2, self._stab(stab1, (ns1[-1],)),
                                      self._stab(stab2, (ns2[-1],)), side,
                                      new_switches, budget, r - 1):
                        all_win = False
                        break
                if all_win:
                    result = True
                    break
            if result:
                break
        self._memo[key] = result
        return result

    def position_rank(self, seq1, seq2, cap: int, budget: int | None = None,
                      last: int | None = None, switches: int = 0) -> int | None:
        """Minimum number of further rounds Spoiler needs, or None beyond cap."""
        seq1, seq2 = tuple(seq1), tuple(seq2)
        stab1 = self._stab(self.aut1, seq1)
        stab2 = self._stab(self.aut2, seq2)
        for r in range(1, cap + 1):
            if self._wins(seq1, seq2, stab1, stab2, last, switches, budget, r):
                return r
        return None

    def winning_move(self, seq1, seq2, r: int, budget=None, last=None,
                     switches: int = 0):
        """A Spoiler move that wins within r rounds, or None."""
        seq1, seq2 = tuple(seq1), tuple(seq2)
        stab1 = self._stab(self.aut1, seq1)
        stab2 = self._stab(self.aut2, seq2)
        for side in (0, 1):
            if last is not None and side != last and budget is not None \
                    and switches >= budget:
                continue
            new_switches = switches + (1 if last is not None and side != last else 0)
            n_here = self.m1.order if side == 0 else self.m2.order
            for elem in range(n_here):
                responses = self.legal_responses(seq1, seq2, side, elem)
                if not responses:
                    return side, elem
                if r == 1:
                    continue
                ok = True
                for w in responses:
                    ns1, ns2 = (seq1 + (elem,), seq2 + (w,)) if side == 0 \
                        else (seq1 + (w,), seq2 + (elem,))
                    if not self._wins(ns1, ns2, self._stab(stab1, (ns1[-1],)),
                                      self._stab(stab2, (ns2[-1],)),
                                      side, new_switches, budget, r - 1):
                        ok = False
                        break
                if ok:
                    return side, elem
        return None


def distinguishing_rank(m1: Structure, m2: Structure,
                        max_rounds: int = DEFAULT_ROUND_CAP) -> int | None:
    """Exact game value: minimum rounds in which Spoiler can force a win.
    None when the cap is exhausted (in particular for isomorphic inputs)."""
    return GameSolver(m1, m2).position_rank((), (), max_rounds)


def distinguishing_rank_alt(m1: Structure, m2: Structure, alternations: int,
                            max_rounds: int = DEFAULT_ROUND_CAP) -> int | None:
    """Game value when Spoiler may switch structures at most `alternations`
    times. Non-increasing in the budget."""
    if alternations < 0:
        raise InputError("alternation budget must be non-negative")
    return GameSolver(m1, m2).position_rank((), (), max_rounds,
                                            budget=alternations)


def identification_rank(struct: Structure, alternations: int | None = None,
                        max_rounds: int | None = None,
                        graph_mode: bool = False) -> int:
    """Worst game value against any non-isomorphic structure of the same
    order: the semantic identification cost."""
    cap = max_rounds if max_rounds is not None else struct.order + 1
    own = canonical_key(struct, graph_mode)
    worst = 0
    for rival in enumerate_structures(struct.vocab, struct.order, graph_mode):
        if _mask_of(rival, graph_mode) == own:
            continue
        solver = GameSolver(struct, rival)
        value = solver.position_rank((), (), cap, budget=alternations)
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
        options = self.solver.legal_responses(seq1, seq2, side, elem)
        if not options:
            return None
        best_w, best_value = None, -1
        for w in sorted(options):
            ns1, ns2 = (tuple(seq1) + (elem,), tuple(seq2) + (w,)) if side == 0 \
                else (tuple(seq1) + (w,), tuple(seq2) + (elem,))
            value = self.solver.position_rank(ns1, ns2, self.horizon)
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
    sides = []
    for rnd in range(1, max_rounds + 1):
        side, elem = spoiler.next_move()
        sides.append(side)
        response = dup.respond(seq1, seq2, side, elem)
        if response is None:
            moves.append((rnd, side, elem, -1))
            alts = sum(1 for i in range(1, len(sides)) if sides[i] != sides[i - 1])
            return Transcript(moves, "spoiler", rnd, alts)
        moves.append((rnd, side, elem, response))
        if side == 0:
            seq1, seq2 = seq1 + (elem,), seq2 + (response,)
        else:
            seq1, seq2 = seq1 + (response,), seq2 + (elem,)
        spoiler.observe(side, elem, response)
    alts = sum(1 for i in range(1, len(sides)) if sides[i] != sides[i - 1])
    return Transcript(moves, "duplicator", None, alts)


class SolverSpoiler:
    """Optimal Spoiler driven directly by the solver (reference strategy)."""

    def __init__(self, m1: Structure, m2: Structure, cap: int = DEFAULT_ROUND_CAP):
        self.solver = GameSolver(m1, m2)
        self.cap = cap
        self.seq1: tuple[int, ...] = ()
        self.seq2: tuple[int, ...] = ()
        self.pending: tuple[int, int] | None = None

    def next_move(self):
        r = self.solver.position_rank(self.seq1, self.seq2, self.cap)
        if r is None:
            raise FidError("no forced win within the cap")
        move = self.solver.winning_move(self.seq1, self.seq2, r)
        assert move is not None
        self.pending = move
        return move

    def observe(self, side: int, elem: int, response: int):
        if side == 0:
            self.seq1, self.seq2 = self.seq1 + (elem,), self.seq2 + (response,)
        else:
            self.seq1, self.seq2 = self.seq1 + (response,), self.seq2 + (elem,)


# ---------------------------------------------------------------------------
# The phased strategy.
# ---------------------------------------------------------------------------

@dataclass
class _Recovery:
    level: int
    pair: tuple[int, int]
    queue: list[tuple[int, int, int]] = field(default_factory=list)
    # queue entries: (side, element, expected partner)


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
        self.moves_made = 0
        if self.state == "phase1":
            self._enqueue_phase1()
        else:
            self.queue = [(0, e, None) for e in range(self.n)]

    # -- bookkeeping ---------------------------------------------------------

    def _map1(self) -> dict[int, int]:
        return dict(zip(self.seq1, self.seq2))

    def _layer(self, i: int) -> frozenset[int]:
        return self.decomp.x[i - 1]

    def _layer_image(self, i: int) -> frozenset[int]:
        phi = self.phis[i]
        return frozenset(phi.values())

    def _ext_ok(self, phi: dict[int, int], a: int, b: int) -> bool:
        ext = dict(phi)
        ext[a] = b
        return len(set(ext.values())) == len(ext) and extends(self.m1, self.m2, ext, a)

    def threat_level(self, a: int, b: int) -> int | None:
        """Smallest completed layer at which the pair sits outside both sides
        yet fails the one-point extension test."""
        for i in range(1, self.completed + 1):
            phi = self.phis[i]
            if a in phi or b in phi.values():
                continue
            if not self._ext_ok(phi, a, b):
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

    def _finish_phase(self, i: int):
        """Compute the layer-i partial isomorphism and check its structure."""
        if i == 1:
            phi = {a: b for a, b in zip(self.seq1, self.seq2) if a in self._layer(1)}
            assert set(phi) == set(self._layer(1))
        else:
            prev = self.phis[i - 1]
            phi = dict(prev)
            pebbled = self._map1()
            xj = self._layer(i - 1)
            x2j = frozenset(prev.values())
            small1 = classes_of(self.m1, xj, self.k + 1).classes \
                if len(xj) < self.n else ()
            small2 = classes_of(self.m2, x2j, self.k + 1).classes \
                if len(x2j) < self.m2.order else ()
            matched2 = []
            for cls in small1:
                rep = cls[0]
                partner = None
                for cls2 in small2:
                    if cls2 in matched2:
                        continue
                    if self._ext_ok(prev, rep, cls2[0]):
                        partner = cls2
                        break
                assert partner is not None and len(partner) == len(cls), \
                    "small-class correspondence failed despite quiet lookahead"
                matched2.append(partner)
                image = [pebbled[e] for e in cls[:-1]]
                assert all(b in partner for b in image), \
                    "pebbled class members strayed from the partner class"
                leftover = [b for b in partner if b not in image]
                assert len(leftover) == 1
                for e in cls[:-1]:
                    phi[e] = pebbled[e]
                phi[cls[-1]] = leftover[0]
            for a, b in pebbled.items():
                if a in self._layer(i) and a not in phi:
                    phi[a] = b
            assert set(phi) == set(self._layer(i)), \
                (sorted(phi), sorted(self._layer(i)))
            assert is_partial_isomorphism(self.m1, self.m2, phi), \
                "layer extension is not a partial isomorphism"
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
                responses = self.solver.legal_responses(seq1, seq2, side, elem)
                if not responses:
                    return side, elem
                ok = True
                for w in responses:
                    pair = (elem, w) if side == 0 else (w, elem)
                    if self.threat_level(*pair) is not None:
                        continue
                    if depth <= 1:
                        ok = False
                        break
                    ns1, ns2 = (seq1 + (elem,), seq2 + (w,)) if side == 0 \
                        else (seq1 + (w,), seq2 + (elem,))
                    if self._force_threat_move(depth - 1, ns1, ns2, side,
                                               switched or side != last) is None:
                        ok = False
                        break
                if ok:
                    return side, elem
        return None

    # -- recovery ------------------------------------------------------------

    def _start_recovery(self, level: int, pair: tuple[int, int]):
        a, b = pair
        phi = self.phis[level]
        ext = dict(phi)
        ext[a] = b
        witness = None
        domain = sorted(self._layer(level) | {a})
        for idx, (_, arity) in enumerate(self.m1.vocab.symbols):
            t1, t2 = self.m1.tables[idx], self.m2.tables[idx]
            for tup in itertools.product(domain, repeat=arity):
                if a not in tup:
                    continue
                if (tup in t1) != (tuple(ext[e] for e in tup) in t2):
                    witness = tup
                    break
            if witness:
                break
        assert witness is not None, "threatening pair without a violated tuple"
        pebbled1 = set(self.seq1)
        missing = sorted(set(witness) - {a} - pebbled1)
        queue = []
        for e in missing:
            if self.side_now == 0 or not self.alternated:
                queue.append((0, e, phi[e]))
            else:
                queue.append((1, phi[e], e))
        self.recovery = _Recovery(level, pair, queue)
        self.state = "recovery"

    # -- protocol ------------------------------------------------------------

    def next_move(self) -> tuple[int, int]:
        while True:
            if self.state == "recovery":
                rec = self.recovery
                if not rec.queue:
                    raise FidError("recovery exhausted without a win")
                side, elem, _ = rec.queue[0]
                self.moves_made += 1
                return side, elem
            if self.queue:
                side, elem, _ = self.queue[0]
                self.moves_made += 1
                return side, elem
            self._advance()

    def observe(self, side: int, elem: int, response: int):
        pair = (elem, response) if side == 0 else (response, elem)
        if side != self.side_now:
            self.alternated = True
            self.side_now = side
        if self.state == "recovery":
            rec = self.recovery
            qside, qelem, expected = rec.queue.pop(0)
            assert (qside, qelem) == (side, elem)
            self._grow(side, elem, response)
            if response != expected:
                level = self.threat_level(*pair)
                assert level is not None and level < rec.level, \
                    "recovery deviation did not lower the threat level"
                self._start_recovery(level, pair)
            return
        if self.queue and self.queue[0][:2] == (side, elem):
            self.queue.pop(0)
        self._grow(side, elem, response)
        if self.state in ("phase1", "classes", "conclude", "forced-threat"):
            level = self.threat_level(*pair)
            if level is not None:
                self.queue = []
                self._start_recovery(level, pair)
                return
        if self.state == "forced-win":
            self.part2_target = max(1, self.part2_target - 1)

    def _grow(self, side: int, elem: int, response: int):
        if side == 0:
            self.seq1 += (elem,)
            self.seq2 += (response,)
        else:
            self.seq1 += (response,)
            self.seq2 += (elem,)

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
            move = self.solver.winning_move(
                self.seq1, self.seq2, self.part2_target,
                budget=0 if self.alternated else 1, last=self.side_now)
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
        pairing: dict[tuple[int, ...], tuple[int, ...]] = {}
        taken = set()
        for cls in cls1:
            partner = None
            for cand in cls2:
                if cand in taken:
                    continue
                if self._ext_ok(phi_k, cls[0], cand[0]):
                    partner = cand
                    break
            if partner is not None:
                pairing[cls] = partner
                taken.add(partner)
        unmatched1 = [c for c in cls1 if c not in pairing]
        unmatched2 = [c for c in cls2 if c not in taken]

        if unmatched1 or unmatched2:
            if unmatched1:
                self.queue = [(0, min(unmatched1[0]), None)]
            else:
                self.queue = [(1, min(unmatched2[0]), None)]
            return

        useful = [c for c in cls1 if len(pairing[c]) != len(c)]
        if not useful:
            assert self.n == self.m2.order, \
                "perfect size-preserving pairing needs equal orders"
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
        assert len(back) == self.m2.order, "upsilon extension is not total"
        witness = None
        for idx, (_, arity) in enumerate(self.m1.vocab.symbols):
            t1, t2 = self.m1.tables[idx], self.m2.tables[idx]
            for tup in itertools.product(range(self.m2.order), repeat=arity):
                if (tup in t2) != (tuple(back[e] for e in tup) in t1):
                    witness = tup
                    break
            if witness:
                break
        assert witness is not None, \
            "class-respecting extension turned out to be an isomorphism"
        pebbled2 = set(self.seq2)
        self.queue = [(1, e, None) for e in sorted(set(witness) - pebbled2)]
        assert self.queue, "concluding witness already fully pebbled"
