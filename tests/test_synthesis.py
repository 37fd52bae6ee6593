import random

import pytest
from fractions import Fraction

from conftest import graph
from oracles import brute_synth_graph, random_graph

from fid.errors import InputError
from fid.structures import (GRAPH_VOCAB, Structure, Vocabulary, canonical_form,
                            canonical_key, enumerate_structures,
                            find_isomorphism, graph_complement)
from fid.equivalences import sim_classes
from fid.invariants import bs_budget, gen_gm, rho, sigma
from fid.logic import (TRUE, compile_eval, evaluate, exists_block, forall_block,
                       format_formula, metrics)


def fast_true(struct, formula):
    return compile_eval(formula, struct.vocab)(struct)
from fid.synthesis import (complement_rewrite, exceptional_graph,
                           exceptional_graph_formula, gm_adversary,
                           synth_auto, synth_delta, synth_graph,
                           synth_naive_define, synth_naive_identify,
                           synth_rho, synth_sigma,
                           universal_deficit_adversary)


def all_graphs(order):
    return list(enumerate_structures(GRAPH_VOCAB, order, graph_mode=True))


def test_naive_identify_counts(k3, edge2):
    for struct in (k3, edge2, graph(1, [])):
        result = synth_naive_identify(struct)
        assert result.metrics.quantifiers == struct.order
        assert result.metrics.universals == 0
        assert evaluate(struct, result.formula)


def test_naive_define_counts(k3):
    result = synth_naive_define(k3)
    assert result.metrics.quantifiers == 4 and result.metrics.universals == 1
    assert evaluate(k3, result.formula)
    single = Structure(Vocabulary((("P", 1),)), 1, [set()])
    assert synth_naive_define(single).metrics.quantifiers == 2


def test_sigma_construction(i5, k3, h5):
    result = synth_sigma(i5)
    assert result.metrics.existentials == 0 and result.metrics.universals == 2
    assert result.metrics.quantifiers == 5 + 2 - 5
    assert evaluate(i5, result.formula)
    result = synth_sigma(k3)
    assert result.metrics.quantifiers == 3 + 2 - 3
    assert evaluate(k3, result.formula)
    assert synth_sigma(h5) is None  # sigma = 2 < k + 1


def test_sigma_exact_count_when_applicable():
    for struct in all_graphs(5):
        value = sigma(struct)[0]
        result = synth_sigma(struct)
        if value >= 3:
            assert result is not None
            assert result.metrics.quantifiers == struct.order + 2 - value
            assert result.metrics.universals == 2
            assert evaluate(struct, result.formula)
        else:
            assert result is None


def test_rho_construction(p3, i5):
    result = synth_rho(p3, frozenset({2}))
    assert result.metrics.quantifiers == 3
    assert evaluate(p3, result.formula)
    # p + q >= n: the construction hands back the plain diagram
    fallback = synth_rho(i5, frozenset())
    assert fallback.metrics.quantifiers == 5
    assert fallback.method == "rho" and fallback.metrics.universals == 0
    trivial = synth_rho(p3, frozenset({0, 1}))
    assert trivial.metrics.quantifiers == 3
    with pytest.raises(InputError):
        synth_rho(graph(5, [(0, 1), (1, 2)]), frozenset())


def test_rho_count_matches_base_cost():
    rng = random.Random(79)
    for _ in range(20):
        s = random_graph(rng.randrange(3, 6), rng)
        picked = rho(s)
        result = synth_rho(s, picked.base)
        if picked.value < s.order:
            assert result.metrics.quantifiers == picked.value
        assert fast_true(s, result.formula)
        assert result.metrics.is_bs


def test_delta_construction(p3, k3):
    result = synth_delta(p3)
    assert result.metrics.quantifiers <= 3
    assert evaluate(p3, result.formula)
    # k3 has delta 1: the route falls back to the diagram
    result = synth_delta(k3)
    assert result.metrics.quantifiers == 3
    unary = Structure(Vocabulary((("P", 1),)), 3, [{(0,)}])
    assert synth_delta(unary) is None


def test_delta_universal_count():
    for struct in all_graphs(5):
        result = synth_delta(struct)
        if result.metrics.quantifiers < struct.order:
            assert result.metrics.universals == 2


def test_auto_selection(k3, i5, h5):
    assert synth_auto(k3).metrics.quantifiers == 2
    assert synth_auto(i5).metrics.quantifiers == 2
    result = synth_auto(h5)
    assert evaluate(h5, result.formula)
    assert result.metrics.quantifiers <= 5


def test_auto_budget_graphs():
    for n in range(1, 7):
        budget = bs_budget(n, 2)
        for struct in enumerate_structures(GRAPH_VOCAB, n, graph_mode=True):
            result = synth_auto(struct)
            assert Fraction(result.metrics.quantifiers) < budget
            assert result.metrics.is_bs


def test_auto_budget_unary(unary_vocab):
    for n in range(1, 11):
        for marked in range(n + 1):
            struct = Structure(unary_vocab, n, [{(i,) for i in range(marked)}])
            result = synth_auto(struct)
            assert Fraction(result.metrics.quantifiers) <= Fraction(n, 2) + 1
            assert fast_true(struct, result.formula)


def test_auto_never_beats_diagram_hierarchy():
    rng = random.Random(83)
    for _ in range(20):
        s = random_graph(rng.randrange(1, 6), rng)
        assert synth_auto(s).metrics.quantifiers <= synth_naive_identify(s).metrics.quantifiers


def test_exceptional_pair_formulas(h5):
    fixture = exceptional_graph()
    assert canonical_key(fixture) == canonical_key(h5)
    result = synth_graph(fixture)
    m = result.metrics
    assert (m.quantifiers, m.existentials, m.universals) == (4, 1, 3)
    assert evaluate(fixture, result.formula)
    comp = graph_complement(fixture)
    result = synth_graph(comp)
    assert (result.metrics.quantifiers, result.metrics.universals) == (4, 3)
    assert evaluate(comp, result.formula)


def test_complement_rewrite_semantics():
    phi = exceptional_graph_formula()
    rewritten = complement_rewrite(phi)
    assert metrics(rewritten).quantifiers == metrics(phi).quantifiers
    for struct in all_graphs(5):
        assert fast_true(struct, rewritten) == fast_true(graph_complement(struct), phi)


def test_graph_pipeline_budgets():
    pair = {canonical_form(exceptional_graph()),
            canonical_form(graph_complement(exceptional_graph()))}
    for n in range(1, 7):
        for struct in enumerate_structures(GRAPH_VOCAB, n, graph_mode=True):
            result = synth_graph(struct)
            m = result.metrics
            assert fast_true(struct, result.formula)
            assert Fraction(m.quantifiers) <= Fraction(3 * n, 4) + Fraction(3, 2)
            if n >= 5 and canonical_form(struct) not in pair:
                assert m.quantifiers <= n - 1 and m.universals <= 2


def test_graph_selector_matches_brute():
    # Every graph of order <= 6 and every fifth order-7 graph: predicting
    # the winner picks what building every route and taking the least does.
    corpus = [s for n in range(1, 7) for s in all_graphs(n)] + all_graphs(7)[::5]
    for struct in corpus:
        got, want = synth_graph(struct), brute_synth_graph(struct)
        assert (got.method, got.metrics, got.claimed_bound) == \
            (want.method, want.metrics, want.claimed_bound)
        assert format_formula(got.formula) == format_formula(want.formula)


def test_graph_pipeline_order4_one_edge():
    one_edge = graph(4, [(0, 1)])
    result = synth_graph(one_edge)
    assert result.metrics.quantifiers == 4
    assert evaluate(one_edge, result.formula)


def test_graph_pipeline_rejects_non_graphs():
    looped = Structure(GRAPH_VOCAB, 2, [{(0, 0)}])
    with pytest.raises(InputError):
        synth_graph(looped)


def test_universal_deficit_adversary():
    rng = random.Random(89)
    produced = 0
    for _ in range(30):
        n = rng.randrange(3, 6)
        struct = random_graph(n, rng)
        p = rng.randrange(0, n - 1)
        phi = exists_block([f"y{i + 1}" for i in range(p)],
                           forall_block(["x1"], TRUE))
        rival = universal_deficit_adversary(struct, phi)
        assert rival is not None
        produced += 1
        assert evaluate(rival, phi)
        assert find_isomorphism(struct, rival) is None
        flips = sum(len(a ^ b) for a, b in zip(struct.tables, rival.tables))
        assert flips == 1
    assert produced == 30


def test_universal_deficit_shape_limits(p3):
    # q = k universals: out of shape
    assert universal_deficit_adversary(p3, forall_block(["x1", "x2"], TRUE)) is None
    # too many quantifiers total
    phi = exists_block(["y1", "y2"], forall_block(["x1"], TRUE))
    assert universal_deficit_adversary(p3, phi) is None


def test_gm_adversary():
    grid = gen_gm(3)
    phi = forall_block(["x1", "x2"], TRUE)
    rival = gm_adversary(3, 2, phi)
    assert rival is not None
    assert evaluate(rival, phi)
    assert find_isomorphism(grid, rival) is None
    assert sorted(sim_classes(rival).sizes(), reverse=True) == [4, 3, 2]


def test_gm_adversary_with_existentials():
    # pin two grid vertices, then a vacuous universal matrix
    phi = exists_block(["y1", "y2"],
                       forall_block(["x1", "x2"], TRUE))
    rival = gm_adversary(3, 2, phi)
    assert rival is not None and evaluate(rival, phi)


def test_gm_adversary_shape_limits():
    # too many existentials for the bound
    ys = [f"y{i + 1}" for i in range(7)]
    phi = exists_block(ys, forall_block(["x1", "x2"], TRUE))
    assert gm_adversary(3, 2, phi) is None
