import functools
import gc
import hashlib
import itertools
import random
import weakref

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph
from oracles import (brute_game_rank, brute_identification_rank,
                     brute_legal_responses, brute_winning_move,
                     game_rank_via_formulas, random_graph, random_structure)

from fid.errors import FidError, InputError
from fid.structures import (GRAPH_VOCAB, Structure, Vocabulary,
                            enumerate_structures, relabel)
from fid.invariants import game_budget, gen_mfmg
from fid import games
from fid.games import (GameSolver, OptimalDuplicator, PhasedSpoiler,
                       SolverSpoiler, automorphisms,
                       distinguishing_rank, distinguishing_rank_alt,
                       identification_rank, play_out)


def graphs(order):
    return list(enumerate_structures(GRAPH_VOCAB, order, graph_mode=True))


def test_automorphisms(k3, p3, h5):
    assert len(automorphisms(k3)) == 6
    assert len(automorphisms(p3)) == 2
    assert len(automorphisms(h5)) == 4  # swap outer path ends x swap isolates
    assert len(automorphisms(graph(4, []))) == 24
    # memoized on the structure, but each call returns a fresh list
    first = automorphisms(p3)
    first.clear()
    assert automorphisms(p3) == [(0, 1, 2), (2, 1, 0)]


def test_rank_examples(edge2, k3, p3):
    assert distinguishing_rank(edge2, graph(2, [])) == 2
    assert distinguishing_rank(k3, p3) == 2
    assert distinguishing_rank(p3, k3) == 2
    assert distinguishing_rank_alt(edge2, graph(2, []), 0) == 2


def test_rank_isomorphic_exhausts_cap(p3):
    relabeled = graph(3, [(1, 0), (0, 2)])
    assert distinguishing_rank(p3, relabeled, max_rounds=5) is None


def test_rank_unequal_orders(k5):
    k6 = graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert distinguishing_rank(k5, k6, 8) == 6


def test_vocabulary_mismatch(p3):
    other = Structure(Vocabulary((("R", 2),)), 3, [set()])
    with pytest.raises(InputError):
        distinguishing_rank(p3, other)


def test_alternation_monotonicity_order4():
    for a, b in itertools.combinations(graphs(4), 2):
        d0 = distinguishing_rank_alt(a, b, 0, 8)
        d1 = distinguishing_rank_alt(a, b, 1, 8)
        d = distinguishing_rank(a, b, 8)
        assert d0 >= d1 >= d
        assert distinguishing_rank_alt(a, b, 8, 8) == d


def test_reduced_matches_unreduced_small():
    for order in (1, 2, 3):
        for a, b in itertools.combinations(graphs(order), 2):
            for budget in (None, 0, 1):
                fast = GameSolver(a, b).position_rank((), (), 6, budget=budget)
                assert fast == brute_game_rank(a, b, 6, budget)


def test_types_match_brute_force():
    """Plain values by types equal the unreduced minimax on every pair of
    graphs of order <= 4, of order-2 digraphs and of order-2 `P/1 E/2`
    structures, isomorphic pairs included (both give None), and on 80
    seeded pairs of order-2 `P/1 T/3` structures."""
    small = [s for order in range(1, 5) for s in graphs(order)]
    mixed = Vocabulary((("P", 1), ("E", 2)))
    pairs = [pair for pool in (small, list(enumerate_structures(GRAPH_VOCAB, 2)),
                               list(enumerate_structures(mixed, 2)))
             for pair in itertools.combinations_with_replacement(pool, 2)]
    ternary = list(enumerate_structures(Vocabulary((("P", 1), ("T", 3))), 2))
    pairs += random.Random(4).sample(list(itertools.product(ternary, repeat=2)), 80)
    for a, b in pairs:
        assert GameSolver(a, b).position_rank((), (), 5) == brute_game_rank(a, b, 5)


def test_types_match_minimax():
    """Plain values (the least rank at which the types differ) equal the
    type minimax with a budget of cap switches, which cap rounds cannot
    exhaust: types against types, on every same-order pair of order-5
    graphs, 300 seeded order-3 digraph pairs, and every live position of
    length <= 2, repeated pebbles included, on graphs of order <= 4."""
    digraphs3 = list(enumerate_structures(GRAPH_VOCAB, 3))
    pairs = list(itertools.combinations(graphs(5), 2)) + random.Random(8).sample(
        list(itertools.product(digraphs3, repeat=2)), 300)
    for a, b in pairs:
        solver = GameSolver(a, b)
        assert solver.position_rank((), (), 6) == \
            solver.position_rank((), (), 6, budget=6)
    small = [s for order in range(1, 5) for s in graphs(order)]
    repeated = 0
    for a, b in itertools.combinations_with_replacement(small, 2):
        solver = GameSolver(a, b)
        for seq1, seq2 in set(_live_positions(a, b, 2, solver.legal_responses)):
            repeated += len(set(seq1)) < len(seq1)
            assert solver.position_rank(seq1, seq2, 5) == \
                solver.position_rank(seq1, seq2, 5, budget=5)
    assert repeated


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.booleans(),
       st.randoms(use_true_random=False))
def test_distinguishing_rank_symmetric_and_label_free(n1, n2, loops, rng):
    """D(a, b) = D(b, a), and relabelling either side leaves it unchanged."""
    def make(n):
        return random_structure(GRAPH_VOCAB, n, rng) if loops else random_graph(n, rng)
    a, b = make(n1), make(n2)
    value = distinguishing_rank(a, b, 6)
    assert distinguishing_rank(b, a, 6) == value
    assert distinguishing_rank(relabel(a, rng.sample(range(n1), n1)), b, 6) == value
    assert distinguishing_rank(a, relabel(b, rng.sample(range(n2), n2)), 6) == value


def test_solver_matches_characteristic_formulas():
    """Game value (by types) == least rank whose characteristic formula
    distinguishes."""
    small = graphs(2) + graphs(3)
    for a, b in itertools.combinations(small, 2):
        if a.order != b.order:
            continue
        got = distinguishing_rank(a, b, 4)
        want = game_rank_via_formulas(a, b, 4)
        assert got == want
    digraphs = list(enumerate_structures(GRAPH_VOCAB, 2))
    for a, b in itertools.combinations(digraphs, 2):
        got = distinguishing_rank(a, b, 4)
        want = game_rank_via_formulas(a, b, 4)
        assert got == want


def test_identification_rank(edge2):
    assert identification_rank(edge2, graph_mode=True) == 2
    # order-3 graphs: worst rival value, under the binary-vocabulary ceiling
    for struct in graphs(3):
        value = identification_rank(struct, graph_mode=True)
        assert value <= (3 + 3) / 2
    # alternation-limited variant is at least the plain value
    for struct in graphs(3):
        plain = identification_rank(struct, graph_mode=True)
        limited = identification_rank(struct, alternations=1, graph_mode=True)
        assert limited >= plain
    # a relabelled input still skips its own class among the rivals
    struct = graphs(5)[27]
    assert identification_rank(relabel(struct, (1, 4, 3, 2, 0)), graph_mode=True) \
        == identification_rank(struct, graph_mode=True)


def test_identification_rank_unary():
    # two marked of three: the one-marked rival needs two rounds, the
    # all-or-nothing rivals fall in one
    unary = Vocabulary((("P", 1),))
    struct = Structure(unary, 3, [{(0,), (1,)}])
    assert identification_rank(struct) == 2


def test_identification_rank_matches_cold_tables():
    """I, I^0 and I^1 from the shared corpus equal one cold call each, with
    a fresh enumeration and type table, on every graph of order <= 5 and
    every order-3 E/2 structure."""
    pool = [(s, True) for order in range(1, 6) for s in graphs(order)]
    pool += [(s, False) for s in enumerate_structures(GRAPH_VOCAB, 3)]
    for struct, graph_mode in pool:
        for alternations in (None, 0, 1):
            assert identification_rank(struct, alternations, graph_mode=graph_mode) \
                == brute_identification_rank(struct, alternations, graph_mode=graph_mode)


def test_identification_rank_interleaved_corpora():
    """Switching corpora between calls changes no value: order-4 graphs,
    order-5 graphs, order-3 digraphs, then order-4 graphs again."""
    pools = {key: list(enumerate_structures(GRAPH_VOCAB, *key))
             for key in ((4, True), (5, True), (3, False))}
    want = {}
    for key in ((4, True), (5, True), (3, False), (4, True)):
        for index, struct in enumerate(pools[key]):
            for alternations in (None, 1):
                got = identification_rank(struct, alternations, graph_mode=key[1])
                assert want.setdefault((key, index, alternations), got) == got
    for (key, index, alternations), value in want.items():
        if key == (4, True):
            assert value == brute_identification_rank(
                pools[key][index], alternations, graph_mode=True)


def test_corpus_cache_holds_one_key():
    """A second (vocab, order, graph mode) replaces the first, whose rivals
    and type table are then freed."""
    identification_rank(graphs(4)[3], graph_mode=True)
    key, (rivals, types) = games._last_corpus
    assert key == (GRAPH_VOCAB, 4, True) and len(rivals) == 11
    old = weakref.ref(types)
    del rivals, types
    identification_rank(graphs(3)[1], graph_mode=True)
    key, (rivals, types) = games._last_corpus
    assert key == (GRAPH_VOCAB, 3, True) and len(rivals) == 4
    assert all(struct.order == 3 for struct in types._memos)
    gc.collect()
    assert old() is None


def test_relabelled_inputs_leave_no_memos():
    """Ranking 20 relabellings of one order-5 graph leaves the shared
    table's memos, interned types and `wins` memo where one call left
    them: each relabelled input is ranked as its class representative."""
    struct = graphs(5)[27]
    rng = random.Random(13)
    for alternations in (None, 1):
        want = identification_rank(struct, alternations, graph_mode=True)
        types = games._last_corpus[1][1]
        sizes = len(types._memos), len(types._ids), len(types._wins)
        for _ in range(20):
            other = relabel(struct, rng.sample(range(5), 5))
            assert identification_rank(other, alternations, graph_mode=True) == want
        assert (len(types._memos), len(types._ids), len(types._wins)) == sizes


@pytest.mark.parametrize("order, graph_mode", [(5, True), (3, False)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_identification_rank_label_free(order, graph_mode, data):
    """I and I^1 do not change under a relabelling of the input; the
    relabelled call runs on the corpus the first one warmed, through the
    class representative, so the table never holds a memo of its input
    unless the input equals the representative."""
    struct = data.draw(st.sampled_from(
        list(enumerate_structures(GRAPH_VOCAB, order, graph_mode))))
    perm = data.draw(st.permutations(range(order)))
    other = relabel(struct, perm)
    for alternations in (None, 1):
        want = identification_rank(struct, alternations, graph_mode=graph_mode)
        assert identification_rank(other, alternations, graph_mode=graph_mode) == want
        assert (other in games._last_corpus[1][1]._memos) == (other == struct)


def test_large_corpus_is_streamed(monkeypatch):
    """A corpus over the size bound is enumerated and typed afresh on each
    call, with every rival forgotten after its game, and the kept corpus
    stays as it was; the values equal the cold per-call loop."""
    identification_rank(graphs(4)[3], graph_mode=True)
    kept = games._last_corpus
    assert games._corpus(Vocabulary((("P", 1), ("E", 2))), 4, False)[0] is None
    monkeypatch.setattr(games, "HELD_CORPUS_CLASSES", 0)
    forgotten = []
    monkeypatch.setattr(games._TypeTable, "forget",
                        lambda self, struct: forgotten.append(struct))
    for graph_mode, pool in ((True, graphs(5)),
                             (False, list(enumerate_structures(GRAPH_VOCAB, 3)))):
        for struct in pool:
            for alternations in (None, 1):
                forgotten.clear()
                value = identification_rank(struct, alternations, graph_mode=graph_mode)
                assert len(forgotten) == len(pool) - 1
                assert value == brute_identification_rank(
                    struct, alternations, graph_mode=graph_mode)
    assert games._last_corpus is kept


def test_mfmg_lower_bound():
    a, b = gen_mfmg(2)
    value = distinguishing_rank(a, b, 6)
    assert value is not None and value >= 2


class _CyclingSpoiler:
    """Pebbles every element of the first structure, then repeats."""

    def __init__(self, order):
        self.order = order
        self.at = 0

    def next_move(self):
        move = (0, self.at % self.order)
        self.at += 1
        return move

    def observe(self, side, elem, response):
        pass


def test_play_out_isomorphic_survival(p3):
    relabeled = graph(3, [(1, 0), (0, 2)])
    transcript = play_out(_CyclingSpoiler(3), p3, relabeled, max_rounds=6)
    assert transcript.outcome == "duplicator"
    assert transcript.win_round is None


def test_solver_spoiler_transcript_matches_value(k3, p3):
    spoiler = SolverSpoiler(k3, p3)
    transcript = play_out(spoiler, k3, p3, max_rounds=8)
    assert transcript.outcome == "spoiler"
    assert transcript.win_round == distinguishing_rank(k3, p3)


def test_phased_spoiler_order4_budget():
    budget = game_budget(4, 2)
    for a, b in itertools.combinations(graphs(4), 2):
        spoiler = PhasedSpoiler(a, b)
        transcript = play_out(spoiler, a, b, max_rounds=10)
        assert transcript.outcome == "spoiler"
        assert Fraction(transcript.win_round) < budget
        assert transcript.alternations <= 1


def test_phased_spoiler_tiny_orders():
    for a, b in itertools.combinations(graphs(2) + graphs(3), 2):
        if a.order > b.order:
            a, b = b, a
        spoiler = PhasedSpoiler(a, b)
        transcript = play_out(spoiler, a, b, max_rounds=8)
        assert transcript.outcome == "spoiler"
        assert transcript.alternations <= 1


def test_phased_spoiler_irredundant_budget():
    a, b = gen_mfmg(2)
    spoiler = PhasedSpoiler(a, b)
    transcript = play_out(spoiler, a, b, max_rounds=12)
    assert transcript.outcome == "spoiler"
    assert transcript.alternations <= 1
    irredundant_budget = (1 - Fraction(1, 4)) * 8 + 4 - 2 + 1
    assert transcript.win_round <= irredundant_budget


def test_phased_spoiler_unequal_orders(p3):
    p4 = graph(4, [(0, 1), (1, 2), (2, 3)])
    spoiler = PhasedSpoiler(p3, p4)
    transcript = play_out(spoiler, p3, p4, max_rounds=10)
    assert transcript.outcome == "spoiler"
    with pytest.raises(InputError):
        PhasedSpoiler(p4, p3)


def test_optimal_duplicator_prefers_survival(k3, p3):
    solver = GameSolver(k3, p3)
    dup = OptimalDuplicator(solver, 8)
    # spoiler opens on the triangle; only the path's center survives two
    # further rounds, so the duplicator picks it over the earlier endpoints
    reply = dup.respond((), (), 0, 0)
    assert reply == 1
    assert solver.position_rank((0,), (1,), 6) == 2
    assert solver.position_rank((0,), (0,), 6) == 1


def test_winning_move_matches_oracle():
    """At the game value, the solver's move is the least winning (side, elem)
    of the plain minimax, on every pair of graphs of order <= 4."""
    small = [s for order in range(1, 5) for s in graphs(order)]
    for a, b in itertools.combinations(small, 2):
        for budget in (None, 1):
            solver = GameSolver(a, b)
            value = solver.position_rank((), (), 8, budget=budget)
            move = solver.winning_move((), (), value, budget=budget)
            assert move == brute_winning_move(a, b, value, budget)


def _check_positions_against_oracle(a, b, cap):
    """`position_rank` and, at the game value, `winning_move` equal the
    plain minimax from every live position of length <= 2, repeated pebbles
    included, for budgets None, 0 and 1. Positions of length >= 1 are tried
    with either side played last and every feasible switch count, so
    exhausted budgets are among them. Returns the number of exhausted
    starts checked."""
    solver = GameSolver(a, b)
    positions = sorted(set(_live_positions(a, b, 2, solver.legal_responses)))
    exhausted = 0
    for budget in (None, 0, 1):
        for seq1, seq2 in positions:
            if not seq1 or budget is None:
                states = [(None, 0)]
            else:
                states = [(last, switches) for last in (0, 1)
                          for switches in range(min(budget, len(seq1) - 1) + 1)]
            for last, switches in states:
                exhausted += budget is not None and last is not None \
                    and switches == budget
                start = (seq1, seq2, last, switches)
                value = solver.position_rank(seq1, seq2, cap, budget=budget,
                                             last=last, switches=switches)
                assert value == brute_game_rank(a, b, cap, budget, start)
                if value is not None:
                    move = solver.winning_move(seq1, seq2, value, budget=budget,
                                               last=last, switches=switches)
                    assert move == brute_winning_move(a, b, value, budget, start)
    return exhausted


def test_positions_match_oracle():
    """Mid-game values and winning moves, budgeted or not, equal the plain
    minimax within 4 rounds on every pair of distinct graphs of order <= 4
    and on 150 seeded pairs of order-3 digraphs, isomorphic ones included."""
    small = [s for order in range(1, 5) for s in graphs(order)]
    digraphs3 = list(enumerate_structures(GRAPH_VOCAB, 3))
    pairs = list(itertools.combinations(small, 2)) + \
        random.Random(15).sample(list(itertools.product(digraphs3, repeat=2)), 150)
    assert sum(_check_positions_against_oracle(a, b, 4) for a, b in pairs)


@functools.lru_cache(maxsize=None)
def _pinned_transcripts():
    """The phased transcripts of C9, the mfmg(2) pair and P3/P4, and those
    of the solver Spoiler on every pair of graphs of order <= 4, in order."""
    games = [(PhasedSpoiler(a, b), a, b, 10)
             for a, b in itertools.combinations(graphs(4), 2)]
    fives = graphs(5)
    rng = random.Random(909)
    for i, j in rng.sample(list(itertools.combinations(range(len(fives)), 2)), 20):
        games.append((PhasedSpoiler(fives[i], fives[j]), fives[i], fives[j], 10))
    a, b = gen_mfmg(2)
    games.append((PhasedSpoiler(a, b), a, b, 12))
    p3, p4 = graph(3, [(0, 1), (1, 2)]), graph(4, [(0, 1), (1, 2), (2, 3)])
    games.append((PhasedSpoiler(p3, p4), p3, p4, 10))
    small = [s for order in range(1, 5) for s in graphs(order)]
    games.extend((SolverSpoiler(a, b), a, b, 8)
                 for a, b in itertools.combinations(small, 2))
    return [play_out(*game) for game in games]


def test_pinned_transcripts():
    """Move choice and recovery witnesses are pinned: a SHA-256 over the
    moves of the pinned transcripts."""
    digest = hashlib.sha256()
    for transcript in _pinned_transcripts():
        digest.update(repr(transcript.moves).encode())
    assert digest.hexdigest() == \
        "2732049e2ef27d33e94abd425e0485b36b637c14cfea79114c8bd1a451943b6c"


def test_pinned_transcript_results():
    """What `play_out` returns besides the moves is pinned too: a SHA-256
    over (outcome, win_round, alternations) of the pinned transcripts. A
    zero-round game is a Duplicator win with no moves."""
    digest = hashlib.sha256()
    for t in _pinned_transcripts():
        digest.update(repr((t.outcome, t.win_round, t.alternations)).encode())
    assert digest.hexdigest() == \
        "5c8a3bd1e0804cb9db368f6733eede0a7d7c170923fe54176726b91e7f1ec750"
    k3, p3 = graph(3, [(0, 1), (1, 2), (0, 2)]), graph(3, [(0, 1), (1, 2)])
    empty = play_out(SolverSpoiler(k3, p3), k3, p3, max_rounds=0)
    assert (empty.moves, empty.outcome, empty.win_round, empty.alternations) \
        == ([], "duplicator", None, 0)


def _live_positions(a, b, length, replies):
    """Every position of at most `length` rounds reachable by the legal
    replies `replies(seq1, seq2, side, elem)`, pebbled elements included."""
    level = [((), ())]
    for _ in range(length + 1):
        yield from level
        level = [(seq1 + (x,), seq2 + (y,))
                 for seq1, seq2 in level for side in (0, 1)
                 for elem in range((a.order, b.order)[side])
                 for reply in replies(seq1, seq2, side, elem)
                 for x, y in [(elem, reply) if side == 0 else (reply, elem)]]


def test_legal_responses_match_oracle():
    """`legal_responses` agrees with the pattern-and-tuple oracle for both
    sides and every element, pebbled or fresh, in every live position of
    length <= 2: on every pair of graphs of order <= 3 and on a seeded
    sample of order-3 digraph pairs."""
    small = [s for order in range(1, 4) for s in graphs(order)]
    digraphs3 = list(enumerate_structures(Vocabulary((("E", 2),)), 3))
    pairs = list(itertools.product(small, repeat=2)) \
        + random.Random(11).sample(list(itertools.product(digraphs3, repeat=2)), 40)
    for a, b in pairs:
        solver = GameSolver(a, b)
        replies = functools.partial(brute_legal_responses, a, b)
        for seq1, seq2 in set(_live_positions(a, b, 2, replies)):
            for side in (0, 1):
                for elem in range((a.order, b.order)[side]):
                    assert solver.legal_responses(seq1, seq2, side, elem) == \
                        brute_legal_responses(a, b, seq1, seq2, side, elem)


def test_phase_audit_raises_fid_error():
    """A failing self-audit of the phased strategy raises FidError naming its
    stage, under `python -O` too: with every pair refused once layer 1 and
    the first class phase are played, no small class finds a partner."""
    a, b = graph(4, [(0, 1)]), graph(4, [(0, 1), (0, 2)])
    spoiler = PhasedSpoiler(a, b)
    dup = OptimalDuplicator(GameSolver(a, b), 10)
    while not (spoiler.state == "classes" and not spoiler.queue):
        side, elem = spoiler.next_move()
        spoiler.observe(side, elem,
                        dup.respond(spoiler.seq1, spoiler.seq2, side, elem))
    spoiler.solver.extension_ok = lambda *args: False
    with pytest.raises(FidError, match="phase 2: small-class correspondence"):
        spoiler._finish_phase(2)


def test_recovery_without_violated_tuple_raises():
    """Recovering from a pair that does not threaten is an internal fault
    and raises FidError, under `python -O` too."""
    a, b = graph(4, [(0, 1), (1, 2)]), graph(4, [(0, 1), (2, 3)])
    spoiler = PhasedSpoiler(a, b)
    dup = OptimalDuplicator(GameSolver(a, b), 10)
    while not spoiler.completed:   # play until layer 1 is pinned
        side, elem = spoiler.next_move()
        if not spoiler.completed:
            spoiler.observe(side, elem,
                            dup.respond(spoiler.seq1, spoiler.seq2, side, elem))
    phi = spoiler.phis[1]
    quiet = [(x, y) for x in range(4) for y in range(4)
             if x not in phi and y not in phi.values()
             and spoiler.threat_level(x, y) is None]
    assert quiet
    with pytest.raises(FidError, match="without a violated tuple"):
        spoiler._start_recovery(1, quiet[0])
