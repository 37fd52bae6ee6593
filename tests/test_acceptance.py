"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with -s or -rA) after asserting
the criterion at its stated tolerance. Shared heavy sweeps (the order-7
enumeration) are session fixtures.

Criterion 5 carries one documented deviation: at order 5 the complement of
the two-adjacent-edges graph is a second unavoidable exception to the
"n-1 quantifiers with two universals" rule. Both invariants driving every
synthesis route are complement-invariant, and an exhaustive search over
atomic-type sets shows no two-universal four-quantifier sentence separates
either graph of the pair from its rivals. The literal single-exception
reading is kept as a strict expected failure so it alarms if it ever starts
passing.
"""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from conftest import graph
from oracles import (brute_game_rank, ground_eval, random_formula, random_graph,
                     random_structure)

from fid.structures import (GRAPH_VOCAB, Structure, Vocabulary, canonical_form,
                            canonical_key, enumerate_structures, find_isomorphism,
                            graph_complement, isomorphic, relabel)
from fid.equivalences import (base_decomposition, counting_terms, equiv_x,
                              sim_classes, similar)
from fid.invariants import (check_clone_definitions, clone, delta_exact,
                            game_budget, gen_gm, gen_mfmg, rho, sigma)
from fid.logic import (TRUE, compile_eval, evaluate, exists_block,
                       forall_block, iso_formula)
from fid.games import (GameSolver, PhasedSpoiler, distinguishing_rank,
                       distinguishing_rank_alt, play_out)
from fid.synthesis import (exceptional_graph, exceptional_graph_formula,
                           gm_adversary, synth_auto, synth_graph, synth_rho,
                           synth_sigma, universal_deficit_adversary)
from fid.verification import audit_corpus, verify_identifies


def report(cid: str, detail: str):
    print(f"ACCEPTANCE {cid}: PASS — {detail}", file=sys.stderr)


@pytest.fixture(scope="module")
def graphs_by_order():
    return {n: list(enumerate_structures(GRAPH_VOCAB, n, graph_mode=True))
            for n in range(1, 7)}


@pytest.fixture(scope="module")
def random_binary_corpus():
    rng = random.Random(20240817)
    corpus = []
    for _ in range(200):
        n = rng.randrange(2, 11)
        corpus.append(random_structure(GRAPH_VOCAB, n, rng,
                                       density=rng.choice((0.2, 0.5, 0.8))))
    return corpus


@pytest.fixture(scope="module")
def order7_lambdas():
    """max{sigma, delta} per order-7 graph, exact delta, with the complement
    shortcut (both invariants are complement-invariant)."""
    values = []
    for g in enumerate_structures(GRAPH_VOCAB, 7, graph_mode=True):
        if len(g.tables[0]) > 20:  # more than 10 edges: complement is swept
            continue
        values.append(max(sigma(g)[0], delta_exact(g).value))
    return values


def test_c01_base_coincidence(graphs_by_order, random_binary_corpus):
    started = time.time()
    corpus = [g for order in graphs_by_order.values() for g in order]
    corpus += random_binary_corpus
    checked_pairs = 0
    for struct in corpus:
        decomp = base_decomposition(struct)  # also runs the internal audits
        k = decomp.k
        residue = sorted(decomp.z)
        for i in range(len(residue)):
            for j in range(i + 1, len(residue)):
                a, b = residue[i], residue[j]
                sim = similar(struct, a, b)
                assert equiv_x(struct, decomp.x[k - 1], a, b) == sim
                assert equiv_x(struct, decomp.x[k], a, b) == sim
                checked_pairs += 1
    report("C1", f"{len(corpus)} structures, {checked_pairs} residue pairs, "
                 f"{time.time() - started:.1f}s")


def test_c02_counting_inequalities(graphs_by_order, random_binary_corpus):
    started = time.time()
    corpus = [g for order in graphs_by_order.values() for g in order]
    corpus += random_binary_corpus
    tight = 0
    for struct in corpus:
        k = struct.vocab.max_arity
        decomp = base_decomposition(struct)
        counts = counting_terms(struct, decomp)
        lhs, rhs = counts["a0"]
        assert lhs >= rhs
        b0_lhs, b0_rhs = counts["b0"]
        if counts["z_size"] > 0:
            assert b0_lhs > b0_rhs
        else:
            # equality is attainable at an empty residue (complete graphs of
            # order k+1); see the decisions ledger
            assert b0_lhs >= b0_rhs
            if b0_lhs == b0_rhs:
                tight += 1
        delta = delta_exact(struct, cap=16).value
        assert len(decomp.base) <= 2 * k * k * delta - (k - 1)
    report("C2", f"{len(corpus)} structures, halved inequality tight on {tight}, "
                 f"{time.time() - started:.1f}s")


def test_c03_alternation_one_game_budget(graphs_by_order):
    started = time.time()
    budget = game_budget(5, 2)
    assert budget == Fraction(31, 4)
    worst = 0
    pairs = 0
    for a, b in itertools.combinations(graphs_by_order[5], 2):
        value = GameSolver(a, b).position_rank((), (), 7, budget=1)
        assert value is not None and Fraction(value) < budget and value <= 7
        worst = max(worst, value)
        pairs += 1
    assert pairs == 34 * 33 // 2
    report("C3", f"{pairs} order-5 pairs, worst D^1 = {worst} (budget {budget}), "
                 f"{time.time() - started:.1f}s")


def test_c04_synthesis_budgets(graphs_by_order):
    started = time.time()
    # exact per-method counting contracts
    for n in range(1, 6):
        for struct in graphs_by_order[n]:
            sig = sigma(struct)[0]
            if sig >= 3:
                result = synth_sigma(struct)
                assert result.metrics.quantifiers == n + 2 - sig
            picked = rho(struct)
            result = synth_rho(struct, picked.base)
            if picked.value < n:
                assert result.metrics.quantifiers == picked.value
    # graphs up to order 6: synthesized formulas all verify, budgets hold
    for n in range(1, 7):
        rep = audit_corpus(GRAPH_VOCAB, n, graph_mode=True)
        assert rep.ok, rep.summary
        assert rep.summary["max_quantifiers"] < rep.summary["budget"]
    # one binary symbol, all structures up to order 4
    for n in range(1, 5):
        rep = audit_corpus(GRAPH_VOCAB, n)
        assert rep.ok, rep.summary
        assert rep.summary["max_quantifiers"] < rep.summary["budget"]
    # one unary symbol up to order 10: the k = 1 budget of n/2 + 1
    unary = Vocabulary((("P", 1),))
    for n in range(1, 11):
        for marked in range(n + 1):
            struct = Structure(unary, n, [{(i,) for i in range(marked)}])
            result = synth_auto(struct)
            assert Fraction(result.metrics.quantifiers) <= Fraction(n, 2) + 1
            assert compile_eval(result.formula, unary)(struct)
    report("C4", f"graphs<=6 and digraphs<=4 audited, unary<=10 budgeted, "
                 f"{time.time() - started:.1f}s")


def test_c05_graph_pipeline(graphs_by_order, order7_lambdas):
    started = time.time()
    fixture = exceptional_graph()
    pair = {canonical_form(fixture), canonical_form(graph_complement(fixture))}
    for n in (5, 6):
        for struct in graphs_by_order[n]:
            result = synth_graph(struct)
            if canonical_form(struct) in pair:
                assert result.metrics.quantifiers == 4
                continue
            assert result.metrics.quantifiers <= n - 1
            assert result.metrics.universals <= 2
            assert verify_identifies(struct, result.formula, graph_mode=True,
                                     rivals=graphs_by_order[n]).passed
    verdict = verify_identifies(fixture, exceptional_graph_formula(),
                                graph_mode=True, rivals=graphs_by_order[5])
    assert verdict.passed and verdict.rivals_checked == 33
    comp = graph_complement(fixture)
    assert verify_identifies(comp, synth_graph(comp).formula, graph_mode=True,
                             rivals=graphs_by_order[5]).passed
    # the exceptional pair is exactly the set of order-5 graphs below the floor
    low5 = [g for g in graphs_by_order[5]
            if max(sigma(g)[0], delta_exact(g).value) < 3]
    assert {canonical_form(g) for g in low5} == pair
    min6 = min(max(sigma(g)[0], delta_exact(g).value) for g in graphs_by_order[6])
    assert min6 >= 3
    assert min(order7_lambdas) >= 3
    report("C5", f"orders 5-6 verified (exceptional pair aside), order-6 floor "
                 f"{min6}, order-7 floor {min(order7_lambdas)}, "
                 f"{time.time() - started:.1f}s")


@pytest.mark.xfail(strict=True,
                   reason="the complement of the exceptional graph is a second "
                          "unavoidable order-5 exception: sigma and delta are "
                          "complement-invariant, and exhaustive type-set search "
                          "shows no 2-universal 4-quantifier sentence separates "
                          "it from its 33 rivals (decisions ledger)")
def test_c05_literal_single_exception(graphs_by_order):
    fixture = exceptional_graph()
    for struct in graphs_by_order[5]:
        if canonical_key(struct) == canonical_key(fixture):
            continue
        result = synth_graph(struct)
        assert result.metrics.quantifiers <= 4 and result.metrics.universals <= 2


def test_c06_cloning(graphs_by_order):
    started = time.time()
    rng = random.Random(606)
    samples = 0
    while samples < 50:
        n = rng.randrange(3, 7)
        struct = random_graph(n, rng, density=rng.choice((0.25, 0.5, 0.75)))
        eligible = [cls for cls in sim_classes(struct).classes if len(cls) >= 2]
        if not eligible:
            continue
        anchor = rng.choice(rng.choice(eligible))
        t = rng.randrange(0, 3)
        assert check_clone_definitions(struct, anchor, t)
        if t:
            # two independent constructions: another anchor in the same
            # class, and a relabeled input
            mates = sim_classes(struct).class_of(anchor)
            grown = clone(struct, anchor, t)
            assert isomorphic(grown, clone(struct, mates[-1], t))
            perm = list(range(n))
            rng.shuffle(perm)
            assert isomorphic(grown, clone(relabel(struct, perm), perm[anchor], t))
        samples += 1
    # the quoted game bound for single-element cloning, exact at small orders
    instances = 0
    for n in range(2, 6):
        for struct in graphs_by_order[n]:
            for cls in sim_classes(struct).classes:
                s = len(cls)
                if s < 2:
                    continue
                grown = clone(struct, cls[0], 1)
                ceiling = math.floor(s + 2 - 1 + (n + 1) / (s + 1))
                solver = GameSolver(struct, grown)
                assert solver.position_rank((), (), s) is None, \
                    "spoiler won before the cloning lower bound"
                alt1 = solver.position_rank((), (), ceiling, budget=1)
                assert alt1 is not None and s + 1 <= alt1 <= ceiling
                instances += 1
    report("C6", f"50 clone samples, {instances} game-bound instances, "
                 f"{time.time() - started:.1f}s")


def test_c07_irredundant_pair():
    started = time.time()
    a, b = gen_mfmg(2)
    assert sigma(a)[0] == 1 and sigma(b)[0] == 1
    value = distinguishing_rank(a, b, 6)
    assert value is not None and value >= 2
    report("C7", f"order-8 digraph pair: D = {value} >= 2, both irredundant, "
                 f"{time.time() - started:.1f}s")


def test_c08_sqrt_floor_and_adversaries(graphs_by_order, order7_lambdas):
    started = time.time()
    # the floor max{delta, sigma} > sqrt(n) - k^2 on every graph up to order 7
    for n in range(1, 7):
        for struct in graphs_by_order[n]:
            lam = max(sigma(struct)[0], delta_exact(struct).value)
            assert (lam + 4) ** 2 > n
    for lam in order7_lambdas:
        assert (lam + 4) ** 2 > 7
    # the class-grid fixture and its adversary
    grid = gen_gm(3)
    assert sigma(grid)[0] == 3
    assert delta_exact(grid).value <= 3
    phi = exists_block(["y1"], forall_block(["x1", "x2"], TRUE))
    rival = gm_adversary(3, 2, phi)
    assert rival is not None
    assert evaluate(rival, phi)
    assert find_isomorphism(grid, rival) is None
    # ten sample structures: the tuple-flip adversary defeats under-quantified
    # prefix-class formulas of both hand-built shapes
    rng = random.Random(808)
    defeated = 0
    while defeated < 10:
        n = rng.randrange(3, 7)
        struct = random_graph(n, rng)
        shapes = [exists_block(["y1"], forall_block(["x1"], TRUE))]
        if n >= 3:
            ys = [f"y{i + 1}" for i in range(n - 2)]
            shapes.append(exists_block(
                ys, forall_block(["x1"], iso_formula(struct, list(range(n - 2)), ys))))
        ok = True
        for phi in shapes:
            assert evaluate(struct, phi)
            rival = universal_deficit_adversary(struct, phi)
            if rival is None:
                ok = False
                break
            assert evaluate(rival, phi)
            assert find_isomorphism(struct, rival) is None
        if ok:
            defeated += 1
    report("C8", f"sqrt floor on 1252 graphs, grid adversary and {defeated} "
                 f"tuple-flip defeats, {time.time() - started:.1f}s")


def test_c09_phased_strategy(graphs_by_order):
    started = time.time()
    budget4 = game_budget(4, 2)
    for a, b in itertools.combinations(graphs_by_order[4], 2):
        transcript = play_out(PhasedSpoiler(a, b), a, b, max_rounds=10)
        assert transcript.outcome == "spoiler"
        assert Fraction(transcript.win_round) < budget4
        assert transcript.alternations <= 1
    rng = random.Random(909)
    budget5 = game_budget(5, 2)
    fives = graphs_by_order[5]
    pairs = rng.sample(list(itertools.combinations(range(len(fives)), 2)), 20)
    worst = 0
    for i, j in pairs:
        a, b = fives[i], fives[j]
        transcript = play_out(PhasedSpoiler(a, b), a, b, max_rounds=10)
        assert transcript.outcome == "spoiler"
        assert Fraction(transcript.win_round) < budget5
        assert transcript.alternations <= 1
        worst = max(worst, transcript.win_round)
    report("C9", f"55 order-4 pairs and 20 order-5 pairs won within budget "
                 f"(worst order-5 win: {worst}), {time.time() - started:.1f}s")


def test_c10_solver_and_evaluator_consistency(graphs_by_order):
    started = time.time()
    # the symmetry-reduced solver agrees with the plain minimax oracle on
    # every same-order pair up to 4
    agreements = 0
    for n in range(1, 5):
        for a, b in itertools.combinations(graphs_by_order[n], 2):
            for budget in (None, 0, 1):
                fast = GameSolver(a, b).position_rank((), (), 6, budget=budget)
                assert fast == brute_game_rank(a, b, 6, budget)
                agreements += 1
    digraphs2 = list(enumerate_structures(GRAPH_VOCAB, 2))
    for a, b in itertools.combinations(digraphs2, 2):
        for budget in (None, 1):
            fast = GameSolver(a, b).position_rank((), (), 5, budget=budget)
            assert fast == brute_game_rank(a, b, 5, budget)
            agreements += 1
    # alternation-budget monotonicity, corpus-wide
    rng = random.Random(1010)
    pairs = [p for n in range(2, 5)
             for p in itertools.combinations(graphs_by_order[n], 2)]
    fives = graphs_by_order[5]
    pairs += [(fives[i], fives[j]) for i, j in
              rng.sample(list(itertools.combinations(range(len(fives)), 2)), 40)]
    for a, b in pairs:
        d0 = distinguishing_rank_alt(a, b, 0, 8)
        d1 = distinguishing_rank_alt(a, b, 1, 8)
        d = distinguishing_rank(a, b, 8)
        assert d0 >= d1 >= d
    # evaluator versus the ground-expansion reference
    rng = random.Random(111)
    for _ in range(500):
        phi = random_formula(GRAPH_VOCAB, rng, max_qr=3)
        struct = random_structure(GRAPH_VOCAB, rng.randrange(1, 5), rng)
        want = ground_eval(struct, phi)
        assert evaluate(struct, phi) == want
        assert compile_eval(phi, GRAPH_VOCAB)(struct) == want
    report("C10", f"{agreements} solver agreements, {len(pairs)} monotone "
                  f"triples, 500 evaluator checks, {time.time() - started:.1f}s")
