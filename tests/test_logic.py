import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph
from oracles import (brute_metrics, codegen_eval, ground_eval, random_formula,
                     random_structure)

from fid.errors import FormulaTooLarge, InputError
from fid.structures import (GRAPH_VOCAB, enumerate_structures,
                            is_partial_isomorphism, parse_vocab_spec, relabel)
from fid.logic import (FALSE, TRUE, And, Eq, Exists, ForAll, Not, Or, Rel,
                       bit_slices, compile_bits, compile_eval, dist_formula,
                       evaluate, exists_block,
                       forall_block, format_formula, guard_nodes, implies,
                       iso_formula, metrics, node_count, parse_formula)

MIXED_VOCAB = parse_vocab_spec("P/1 E/2 T/3")


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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([GRAPH_VOCAB, MIXED_VOCAB]), st.integers(0, 4),
       st.lists(st.booleans(), max_size=3), st.booleans(),
       st.randoms(use_true_random=False))
def test_metrics_match_brute(vocab, max_qr, prefix, negated, rng):
    # a quantifier prefix over a random body: prenex when the body is
    # quantifier-free, non-prenex otherwise or when negated as a whole
    free = tuple(f"p{i}" for i in range(len(prefix)))
    phi = random_formula(vocab, rng, max_qr=max_qr, free=free)
    for var, existential in zip(reversed(free), reversed(prefix)):
        phi = Exists(var, phi) if existential else ForAll(var, phi)
    if negated:
        phi = Not(phi)
    assert dataclasses.asdict(metrics(phi)) == brute_metrics(phi)


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
        want = ground_eval(s, phi)
        assert codegen_eval(phi, GRAPH_VOCAB)(s) == want
        assert compile_eval(phi, GRAPH_VOCAB)(s) == want
        assert evaluate(s, phi) == want


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([GRAPH_VOCAB, MIXED_VOCAB]), st.integers(1, 4),
       st.integers(1, 2), st.integers(0, 4), st.randoms(use_true_random=False))
def test_free_variables_match_ground_eval(vocab, n, n_free, max_qr, rng):
    # deep enough quantifiers rebind v0 (see random_formula)
    free = tuple(f"v{i}" for i in range(n_free))
    phi = random_formula(vocab, rng, max_qr=max_qr, free=free)
    struct = random_structure(vocab, n, rng, rng.random())
    names = [*free, "unused"]
    rng.shuffle(names)
    env = {var: rng.randrange(n) for var in names}
    want = ground_eval(struct, phi, env)
    assert evaluate(struct, phi, env) == want
    assert compile_eval(phi, vocab, tuple(env))(struct, *env.values()) == want


def test_free_variable_rebound(p3):
    # x is free outside the quantifier and rebound inside it; the free value
    # must hold again after the quantifier: "some x is adjacent to all
    # others, and the given x is not"
    dominates = ForAll("y", Or((Eq("x", "y"), Rel("E", ("x", "y")))))
    phi = And((Exists("x", dominates), Not(dominates)))
    check = compile_eval(phi, GRAPH_VOCAB, ("z", "x"))
    for x, want in enumerate([True, False, True]):
        assert ground_eval(p3, phi, {"x": x}) == want
        assert evaluate(p3, phi, {"z": 2, "x": x}) == want
        assert check(p3, 2, x) == want
    with pytest.raises(TypeError):
        check(p3, 0)


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


def test_compiled_check_keeps_no_state():
    # one compiled check, run on two orders, on several free values and
    # after a failed call, answers as a fresh compile and ground_eval do
    rng = random.Random(41)
    free = ("v0", "v1")
    for vocab in (GRAPH_VOCAB, MIXED_VOCAB):
        for _ in range(20):
            phi = random_formula(vocab, rng, free=free)
            check = compile_bits(phi, vocab, free)
            for n in (3, 2, 3):
                structs = [random_structure(vocab, n, rng, rng.random())
                           for _ in range(rng.randrange(1, 6))]
                slices = bit_slices(vocab, n, structs)
                for values in ((0, n - 1), (n - 1, 0), (1, 1)):
                    env = dict(zip(free, values))
                    want = sum(ground_eval(s, phi, env) << r for r, s in enumerate(structs))
                    assert check(slices, *values) == want
                    assert compile_bits(phi, vocab, free)(slices, *values) == want
                with pytest.raises(TypeError):
                    check(slices, 0)


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
    with pytest.raises(InputError, match="needs as many variables"):
        iso_formula(graph(2, []), [0, 1], ["x1"])


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
