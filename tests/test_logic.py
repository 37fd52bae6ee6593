import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph
from oracles import ground_eval, random_formula, random_structure

from fid.errors import FormulaTooLarge, InputError
from fid.structures import (GRAPH_VOCAB, enumerate_structures,
                            is_partial_isomorphism, parse_vocab_spec, relabel)
from fid.logic import (FALSE, TRUE, And, Eq, Exists, ForAll, Not, Or, Rel,
                       bit_slices, compile_bits, compile_eval, dist_formula,
                       evaluate, exists_block,
                       forall_block, format_formula, guard_nodes, implies,
                       iso_formula, metrics, node_count, parse_formula)


def test_metrics_atomic():
    m = metrics(Rel("R", ("x",)))
    assert m.qr == 0 and m.alt == 0 and m.quantifiers == 0
    assert m.prefix_class == "Sigma_0" and m.is_bs


def test_metrics_nesting():
    phi = Exists("x", And((Rel("R", ("x",)), ForAll("y", Rel("S", ("y",))))))
    m = metrics(phi)
    assert m.qr == 2 and m.alt == 1
    assert m.prefix_class == "non-prenex"


def test_metrics_negation_flip():
    phi = Not(Exists("x", ForAll("y", Rel("E", ("x", "y")))))
    m = metrics(phi)
    assert m.alt == 1
    inner = ForAll("x", Exists("y", Rel("E", ("x", "y"))))
    m = metrics(inner)
    assert m.prefix_class == "Pi_2" and not m.is_bs and m.alt == 1


def test_metrics_prefix_classes():
    bs = exists_block(["y1", "y2"], forall_block(["x1"], TRUE))
    m = metrics(bs)
    assert m.prefix_class == "Sigma_2" and m.is_bs
    assert (m.quantifiers, m.existentials, m.universals) == (3, 2, 1)
    pure_a = forall_block(["x1", "x2"], TRUE)
    m = metrics(pure_a)
    assert m.prefix_class == "Pi_1" and m.is_bs
    three = Exists("a", ForAll("b", Exists("c", TRUE)))
    m = metrics(three)
    assert m.prefix_class == "Sigma_3" and not m.is_bs and m.alt == 2


def test_metrics_prenex_qr_equals_count():
    rng = random.Random(7)
    for _ in range(50):
        p, q = rng.randrange(0, 3), rng.randrange(0, 3)
        phi = exists_block([f"y{i}" for i in range(p)],
                           forall_block([f"x{i}" for i in range(q)], TRUE))
        m = metrics(phi)
        assert m.qr == m.quantifiers == p + q


def test_alternation_bounded_by_rank():
    rng = random.Random(13)
    for _ in range(200):
        phi = random_formula(GRAPH_VOCAB, rng)
        m = metrics(phi)
        assert m.alt <= m.qr


def test_evaluate_completeness(k3, p3):
    complete = forall_block(["x", "y"], implies(Not(Eq("x", "y")), Rel("E", ("x", "y"))))
    assert evaluate(k3, complete)
    assert not evaluate(p3, complete)


def test_evaluate_isomorphism_invariance():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(2, 5)
        s = random_structure(GRAPH_VOCAB, n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        s2 = relabel(s, perm)
        phi = random_formula(GRAPH_VOCAB, rng)
        assert evaluate(s, phi) == evaluate(s2, phi)


def test_evaluate_errors(k3):
    with pytest.raises(InputError):
        evaluate(k3, Rel("Q", ("x",)), {"x": 0})
    with pytest.raises(InputError):
        evaluate(k3, Rel("E", ("x",)), {"x": 0})
    with pytest.raises(InputError):
        evaluate(k3, Eq("x", "y"), {"x": 0})


def test_evaluate_shadowing(k3):
    # inner binding wins
    phi = Exists("x", And((Rel("E", ("x", "x")),)))
    shadowed = ForAll("x", Exists("x", Not(Rel("E", ("x", "x")))))
    assert not evaluate(k3, phi)
    assert evaluate(k3, shadowed)


def test_compile_eval_matches_evaluate():
    rng = random.Random(29)
    for _ in range(150):
        phi = random_formula(GRAPH_VOCAB, rng)
        s = random_structure(GRAPH_VOCAB, rng.randrange(1, 5), rng)
        assert compile_eval(phi, GRAPH_VOCAB)(s) == evaluate(s, phi)


MIXED_VOCAB = parse_vocab_spec("P/1 E/2 T/3")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([GRAPH_VOCAB, MIXED_VOCAB]), st.integers(1, 4),
       st.integers(1, 4), st.randoms(use_true_random=False))
def test_compile_bits_matches_evaluate(vocab, n, max_qr, rng):
    structs = [random_structure(vocab, n, rng, rng.random())
               for _ in range(rng.randrange(1, 20))]
    phi = random_formula(vocab, rng, max_qr=max_qr)
    sat = compile_bits(phi, vocab)(bit_slices(vocab, n, structs))
    assert sat >> len(structs) == 0
    for r, struct in enumerate(structs):
        want = ground_eval(struct, phi)
        assert evaluate(struct, phi) == want
        assert bool(sat >> r & 1) == want


def test_compile_bits_shadowing(k3, p3):
    # the third quantifier rebinds x; z must not take x's place
    phi = Exists("x", Exists("y", Exists("x", ForAll("z", Or((
        Eq("x", "z"), Rel("E", ("x", "z"))))))))
    structs = [k3, p3, graph(3, [])]
    sat = compile_bits(phi, GRAPH_VOCAB)(bit_slices(GRAPH_VOCAB, 3, structs))
    assert [bool(sat >> r & 1) for r in range(3)] == \
        [evaluate(s, phi) for s in structs] == [True, True, False]


def test_ground_oracle_agreement():
    rng = random.Random(37)
    for _ in range(150):
        phi = random_formula(GRAPH_VOCAB, rng)
        s = random_structure(GRAPH_VOCAB, rng.randrange(1, 5), rng)
        assert evaluate(s, phi) == ground_eval(s, phi)


def test_dist_formula():
    assert dist_formula(["x"]) == TRUE
    assert dist_formula(["x", "y"]) == Not(Eq("x", "y"))
    five = dist_formula([f"x{i}" for i in range(5)])
    assert len(five.children) == 10
    with pytest.raises(InputError):
        dist_formula([])


def test_iso_formula_contract(edge2):
    phi = iso_formula(edge2, [0, 1])
    for rival in enumerate_structures(GRAPH_VOCAB, 3):
        for pair in itertools.permutations(range(3), 2):
            want = is_partial_isomorphism(edge2, rival, {0: pair[0], 1: pair[1]})
            assert evaluate(rival, phi, {"x1": pair[0], "x2": pair[1]}) == want
        assert not evaluate(rival, phi, {"x1": 1, "x2": 1})


def test_iso_formula_unary_free():
    single = graph(1, [])
    phi = iso_formula(single, [0])
    # one element, no unary symbols: only the trivially false loop atom
    assert evaluate(graph(2, []), phi, {"x1": 0})
    with pytest.raises(InputError):
        iso_formula(single, [0, 0])


def test_node_guard():
    with pytest.raises(FormulaTooLarge):
        guard_nodes(10**9)
    guard_nodes(10)
    assert node_count(TRUE) == 1
    assert node_count(And((TRUE, FALSE))) == 3


def test_parse_format_round_trip(edge2):
    formulas = [
        TRUE,
        FALSE,
        Eq("a", "b"),
        Not(Rel("E", ("x", "y"))),
        iso_formula(edge2, [0, 1]),
        exists_block(["y1"], forall_block(["x1", "x2"], Or((Rel("E", ("y1", "x1")), TRUE)))),
        And((Rel("E", ("a", "b")), And((TRUE, Not(Eq("a", "b")))))),
    ]
    for phi in formulas:
        text = format_formula(phi)
        back = parse_formula(text, GRAPH_VOCAB)
        assert back == phi
        assert format_formula(back) == text


def test_parse_implication_desugars():
    phi = parse_formula("E(x,y) -> x = y", GRAPH_VOCAB)
    assert phi == Or((Not(Rel("E", ("x", "y"))), Eq("x", "y")))


def test_parse_errors():
    for bad in ("EX x", "E(x", "E(x,y) &", "x =", "E(x,y,z)", "(E(x,y)", "E(x,y) y"):
        with pytest.raises(InputError):
            parse_formula(bad, GRAPH_VOCAB)


def test_format_rejects_non_prenex():
    phi = And((Exists("x", TRUE), TRUE))
    with pytest.raises(InputError):
        format_formula(phi)
