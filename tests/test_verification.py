import random

import pytest

from conftest import graph
from oracles import (brute_verify_defines_up_to, brute_verify_identifies,
                     random_formula, random_graph)

from fid import verification
from fid.errors import InputError
from fid.structures import (GRAPH_VOCAB, Vocabulary, enumerate_structures,
                            parse_vocab_spec)
from fid.logic import TRUE, Exists, Or, Rel, evaluate, parse_formula
from fid.synthesis import (exceptional_graph_formula, synth_auto, synth_graph,
                           synth_naive_define, synth_naive_identify, synth_sigma)
from fid.games import identification_rank
from fid.verification import (audit_corpus, verify_defines_up_to,
                              verify_identifies)


def test_sigma_formula_identifies_triangle(k3):
    verdict = verify_identifies(k3, synth_sigma(k3).formula, graph_mode=True)
    assert verdict.passed and verdict.rivals_checked == 3
    assert verdict.counterexample is None


def test_exceptional_formula_identifies(h5):
    verdict = verify_identifies(h5, exceptional_graph_formula(), graph_mode=True)
    assert verdict.passed and verdict.rivals_checked == 33


def test_unsatisfied_formula_fails_immediately(k3):
    phi = parse_formula("EX x . !E(x,x) & E(x,x)", GRAPH_VOCAB)
    verdict = verify_identifies(k3, phi, graph_mode=True)
    assert not verdict.passed and verdict.counterexample == k3
    assert verdict.rivals_checked == 0


def test_weak_formula_fails_with_counterexample(edge2):
    phi = parse_formula("EX x . EX y . E(x,y)", GRAPH_VOCAB)
    assert verify_identifies(edge2, phi, graph_mode=True).passed
    one_edge3 = graph(3, [(0, 1)])
    verdict = verify_identifies(one_edge3, phi, graph_mode=True)
    assert not verdict.passed
    assert verdict.counterexample is not None
    # first satisfying rival in enumeration order, reproducibly
    again = verify_identifies(one_edge3, phi, graph_mode=True)
    assert again.counterexample == verdict.counterexample


def test_naive_identify_passes_small_corpus():
    for n in range(1, 5):
        for struct in enumerate_structures(GRAPH_VOCAB, n, graph_mode=True):
            assert verify_identifies(struct, synth_naive_identify(struct).formula,
                                     graph_mode=True).passed
    for struct in enumerate_structures(GRAPH_VOCAB, 3):
        assert verify_identifies(struct, synth_naive_identify(struct).formula).passed


def test_defines_up_to(k3):
    assert verify_defines_up_to(k3, synth_naive_define(k3).formula, 5,
                                graph_mode=True).passed
    verdict = verify_defines_up_to(k3, synth_naive_identify(k3).formula, 4,
                                   graph_mode=True)
    assert not verdict.passed and verdict.counterexample.order == 4
    with pytest.raises(InputError):
        verify_defines_up_to(k3, synth_naive_identify(k3).formula, 2)


def test_identification_rank_bounded_by_quantifier_count():
    # a verified prenex identifier with t quantifiers forces game rank <= t
    rng = random.Random(97)
    for _ in range(10):
        struct = random_graph(rng.randrange(2, 5), rng)
        result = synth_auto(struct)
        verdict = verify_identifies(struct, result.formula, graph_mode=True)
        assert verdict.passed
        assert identification_rank(struct, graph_mode=True) <= result.metrics.quantifiers


def test_audit_corpus_graphs4():
    report = audit_corpus(GRAPH_VOCAB, 4, graph_mode=True)
    assert report.ok
    assert report.summary["structures"] == 11
    assert report.summary["min_max_sigma_delta"] == 2
    assert {r["method"] for r in report.records} == {"graph"}
    line_count = len(report.to_jsonl().splitlines())
    assert line_count == 11


def test_audit_corpus_workers_deterministic():
    serial = audit_corpus(GRAPH_VOCAB, 4, graph_mode=True, workers=1)
    parallel = audit_corpus(GRAPH_VOCAB, 4, graph_mode=True, workers=2)
    assert serial.records == parallel.records
    assert serial.summary == parallel.summary


def test_audit_corpus_digraphs3():
    report = audit_corpus(GRAPH_VOCAB, 3)
    assert report.ok and report.summary["structures"] == 104


def test_audit_corpus_unary():
    unary = Vocabulary((("P", 1),))
    report = audit_corpus(unary, 6)
    assert report.ok and report.summary["structures"] == 7
    assert report.summary["max_quantifiers"] <= 4


def _assert_matches_brute(struct, phi, graph_mode, rivals):
    """The bit-sliced verdict equals the per-rival one, with the rival list
    and with the enumeration streamed."""
    for given in (rivals, None):
        assert verify_identifies(struct, phi, graph_mode, given) == \
            brute_verify_identifies(struct, phi, graph_mode, given)


def _corpus_formulas(structs, synth, rng):
    """Each structure's synthesized formula, the same formula weakened by a
    disjunct that the next structure's class satisfies (so it fails), and a
    random sentence."""
    own = [synth(s).formula for s in structs]
    for i, struct in enumerate(structs):
        weak = Or((own[i], own[(i + 1) % len(structs)]))
        yield struct, (own[i], weak, random_formula(struct.vocab, rng))


def test_bit_sliced_matches_brute_digraphs3():
    structs = list(enumerate_structures(GRAPH_VOCAB, 3))
    rng = random.Random(31)
    outcomes = set()
    for struct, phis in _corpus_formulas(structs, synth_auto, rng):
        for phi in phis:
            _assert_matches_brute(struct, phi, False, structs)
            outcomes.add(verify_identifies(struct, phi, False, structs).passed)
    assert outcomes == {True, False}


def test_bit_sliced_matches_brute_graphs5():
    structs = list(enumerate_structures(GRAPH_VOCAB, 5, graph_mode=True))
    rng = random.Random(52)
    for struct, phis in _corpus_formulas(structs, synth_graph, rng):
        for phi in phis + (synth_auto(struct).formula,):
            _assert_matches_brute(struct, phi, True, structs)


def test_bit_sliced_matches_brute_unary_binary3():
    vocab = parse_vocab_spec("P/1 E/2")
    structs = list(enumerate_structures(vocab, 3))
    assert len(structs) == 752
    rng = random.Random(13)
    sample = structs[::8]
    for struct, phis in _corpus_formulas(sample, synth_auto, rng):
        for phi in phis:
            assert verify_identifies(struct, phi, rivals=structs) == \
                brute_verify_identifies(struct, phi, rivals=structs)


def test_bit_sliced_shuffled_rivals():
    structs = list(enumerate_structures(GRAPH_VOCAB, 3))
    rng = random.Random(7)
    shuffled = structs[:]
    rng.shuffle(shuffled)
    weak = parse_formula("EX x . EX y . E(x,y)", GRAPH_VOCAB)
    for struct in structs[::5]:
        for phi in (synth_auto(struct).formula, weak):
            # alternate the lists so a stale slice table would show
            for rivals in (structs, shuffled, structs, shuffled[:50]):
                assert verify_identifies(struct, phi, rivals=rivals) == \
                    brute_verify_identifies(struct, phi, rivals=rivals)


def test_rivals_of_another_order_are_refused(k3):
    smaller = list(enumerate_structures(GRAPH_VOCAB, 2, graph_mode=True))
    with pytest.raises(InputError, match="order 3, got one of order 2"):
        verify_identifies(k3, synth_auto(k3).formula, graph_mode=True,
                          rivals=smaller)


def test_bit_sliced_across_blocks(monkeypatch, k3):
    monkeypatch.setattr(verification, "RIVAL_BLOCK", 7)
    structs = list(enumerate_structures(GRAPH_VOCAB, 3))
    rng = random.Random(5)
    for struct, phis in _corpus_formulas(structs[::4], synth_auto, rng):
        for phi in phis:
            _assert_matches_brute(struct, phi, False, structs)
    for phi in (synth_naive_define(k3).formula, synth_naive_identify(k3).formula):
        assert verify_defines_up_to(k3, phi, 5, graph_mode=True) == \
            brute_verify_defines_up_to(k3, phi, 5, graph_mode=True)


def test_defines_up_to_matches_brute():
    for n in range(1, 4):
        for struct in enumerate_structures(GRAPH_VOCAB, n, graph_mode=True):
            for phi in (synth_naive_define(struct).formula,
                        synth_naive_identify(struct).formula,
                        synth_auto(struct).formula):
                assert verify_defines_up_to(struct, phi, 4, graph_mode=True) == \
                    brute_verify_defines_up_to(struct, phi, 4, graph_mode=True)
    for struct in enumerate_structures(GRAPH_VOCAB, 2):
        phi = synth_naive_identify(struct).formula
        assert verify_defines_up_to(struct, phi, 3) == \
            brute_verify_defines_up_to(struct, phi, 3)


@pytest.mark.parametrize("bad, message", [
    (Rel("Q", ("x",)), "unknown symbol 'Q'"),
    (Exists("x", Rel("E", ("x",))), "E expects arity 2, got 1"),
    (Rel("E", ("x", "y")), "unbound variable 'x'"),
])
def test_malformed_branch_raises_when_skipped(k3, bad, message):
    # the TRUE disjunct settles every rival, so a run never reaches `bad`
    phi = Or((TRUE, bad))
    assert evaluate(k3, phi)
    with pytest.raises(InputError, match=message):
        verify_identifies(k3, phi, graph_mode=True)
    with pytest.raises(InputError, match=message):
        verify_identifies(k3, phi, graph_mode=True, rivals=[])
    with pytest.raises(InputError, match=message):
        verify_defines_up_to(k3, phi, 4, graph_mode=True)
