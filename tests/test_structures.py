import ast
import importlib
import inspect
import itertools
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph
from oracles import (brute_find_isomorphism, brute_iso_classes,
                     brute_violated_tuple, burnside_count, random_graph,
                     random_structure)

import fid
from fid import games, verification
from fid.errors import CapExceeded, InputError
from fid.structures import (GRAPH_VOCAB, Structure, Vocabulary, _mask_of,
                            canonical_form, canonical_key,
                            enumerate_structures, find_isomorphism,
                            format_fos, graph_complement, induced,
                            is_partial_isomorphism, isomorphic, parse_fos,
                            parse_vocab_spec, relabel, violated_tuple)


def test_vocabulary_validation():
    with pytest.raises(InputError):
        Vocabulary((("E", 2), ("E", 1)))
    with pytest.raises(InputError):
        Vocabulary((("E", 0),))
    with pytest.raises(InputError):
        Vocabulary(())
    assert Vocabulary((("E", 2), ("P", 1))).max_arity == 2


def test_structure_validation():
    with pytest.raises(InputError):
        Structure(GRAPH_VOCAB, 0, [set()])
    with pytest.raises(InputError):
        Structure(GRAPH_VOCAB, 2, [{(0, 2)}])
    with pytest.raises(InputError):
        Structure(GRAPH_VOCAB, 2, [{(0,)}])


def test_induced_edge_restriction(p3, k3):
    sub, remap = induced(p3, {0, 1})
    assert sub.order == 2 and sub.tables[0] == frozenset({(0, 1), (1, 0)})
    assert remap == {0: 0, 1: 1}
    sub, _ = induced(k3, {0, 1, 2})
    assert sub == k3


def test_induced_h5_isolates(h5):
    sub, remap = induced(h5, {1, 3, 4})
    assert sub.order == 3 and not sub.tables[0]
    assert remap == {1: 0, 3: 1, 4: 2}
    with pytest.raises(InputError):
        induced(h5, {1, 9})
    with pytest.raises(InputError):
        induced(h5, set())


def test_partial_isomorphism_cases(p3, k3):
    assert is_partial_isomorphism(k3, k3, {0: 1, 1: 0})
    assert not is_partial_isomorphism(p3, p3, {0: 0, 1: 2})
    assert is_partial_isomorphism(p3, p3, {0: 1, 1: 0})
    assert is_partial_isomorphism(p3, p3, {})
    assert not is_partial_isomorphism(p3, p3, {0: 1, 2: 1})  # non-injective
    with pytest.raises(InputError):
        is_partial_isomorphism(p3, Structure(Vocabulary((("R", 1),)), 3, [set()]), {})


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_partial_isomorphism_inverse_symmetry(n, rng):
    a = random_graph(n, rng)
    b = random_graph(n, rng)
    size = rng.randrange(n + 1)
    dom = rng.sample(range(n), size)
    img = rng.sample(range(n), size)
    mapping = dict(zip(dom, img))
    inverse = {v: k for k, v in mapping.items()}
    assert is_partial_isomorphism(a, b, mapping) == is_partial_isomorphism(b, a, inverse)


def test_find_isomorphism_examples(p3, k3, edge2):
    assert find_isomorphism(k3, k3) == {0: 0, 1: 1, 2: 2}
    assert find_isomorphism(edge2, graph(2, [])) is None
    relabeled = graph(3, [(1, 0), (0, 2)])
    witness = find_isomorphism(p3, relabeled)
    assert witness == brute_find_isomorphism(p3, relabeled)
    assert is_partial_isomorphism(p3, relabeled, witness)


def test_find_isomorphism_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 5)
        a, b = random_graph(n, rng), random_graph(n, rng)
        got = find_isomorphism(a, b)
        want = brute_find_isomorphism(a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want


def test_partial_isomorphism_incremental_check():
    """`violated_tuple` returns the oracle's first violated tuple, over every
    tuple and over those through one element, for unary, binary and ternary
    symbols and maps in shuffled key order (not always injective). Checking
    only the tuples through the one element of a partial isomorphism plus
    one pair agrees with the full check."""
    vocab = Vocabulary((("P", 1), ("E", 2), ("T", 3)))
    rng = random.Random(17)
    found = 0
    for _ in range(400):
        n = rng.randrange(1, 5)
        a = random_structure(vocab, n, rng, density=0.3)
        b = random_structure(vocab, n, rng, density=0.3)
        dom = rng.sample(range(n), rng.randrange(1, n + 1))
        img = (rng.sample(range(n), len(dom)) if rng.random() < 0.8
               else rng.choices(range(n), k=len(dom)))
        mapping = dict(zip(dom, img))
        new = rng.choice(dom)
        want = brute_violated_tuple(a, b, mapping)
        assert violated_tuple(a, b, mapping) == want
        assert violated_tuple(a, b, mapping, new) == \
            brute_violated_tuple(a, b, mapping, new)
        found += want is not None
        rest = {x: y for x, y in mapping.items() if x != new}
        if len(set(img)) == len(img) and is_partial_isomorphism(a, b, rest):
            assert (violated_tuple(a, b, mapping, new) is None) == \
                is_partial_isomorphism(a, b, mapping)
    assert 0 < found < 400


def test_canonical_form_invariance(p3):
    relabeled = relabel(p3, (2, 0, 1))
    assert canonical_form(p3) == canonical_form(relabeled)
    assert canonical_form(graph(2, [(0, 1)])) != canonical_form(graph(2, []))
    with pytest.raises(CapExceeded):
        canonical_key(graph(9, []))
    with pytest.raises(InputError):
        canonical_key(Structure(GRAPH_VOCAB, 2, [{(0, 0)}]), graph_mode=True)
    # the key is the mask of the enumeration representative, under every
    # relabelling, in both layouts
    for struct in enumerate_structures(GRAPH_VOCAB, 3):
        for perm in itertools.permutations(range(3)):
            assert canonical_key(relabel(struct, perm)) == _mask_of(struct, False)
    for struct in enumerate_structures(GRAPH_VOCAB, 5, graph_mode=True):
        for perm in itertools.permutations(range(5)):
            assert canonical_key(relabel(struct, perm), True) == _mask_of(struct, True)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.randoms(use_true_random=False))
def test_canonical_key_agrees_with_find_isomorphism(n, loops, rng):
    struct = random_structure(GRAPH_VOCAB, n, rng) if loops else random_graph(n, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    image = relabel(struct, perm)
    assert find_isomorphism(struct, image) is not None
    assert canonical_key(struct) == canonical_key(image)
    other = random_structure(GRAPH_VOCAB, n, rng) if loops else random_graph(n, rng)
    assert (canonical_key(struct) == canonical_key(other)) == \
        (find_isomorphism(struct, other) is not None)


def test_canonical_classes_order4_count():
    # 11 unlabeled graphs on 4 vertices, via the pairwise brute-force oracle
    assert brute_iso_classes(GRAPH_VOCAB, 4, graph_mode=True) == 11
    keys = set()
    cells = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for mask in range(1 << 6):
        edges = [cells[i] for i in range(6) if mask >> i & 1]
        keys.add(canonical_key(graph(4, edges)))
    assert len(keys) == 11


def test_enumeration_counts():
    counts = [sum(1 for _ in enumerate_structures(GRAPH_VOCAB, n, graph_mode=True))
              for n in range(1, 7)]
    assert counts == [1, 2, 4, 11, 34, 156]
    unary = Vocabulary((("P", 1),))
    assert sum(1 for _ in enumerate_structures(unary, 3)) == 4
    assert sum(1 for _ in enumerate_structures(GRAPH_VOCAB, 3)) == 104
    assert brute_iso_classes(GRAPH_VOCAB, 2, graph_mode=False) == 10
    assert sum(1 for _ in enumerate_structures(GRAPH_VOCAB, 2)) == 10


def test_enumeration_reps_pairwise_distinct():
    reps = list(enumerate_structures(GRAPH_VOCAB, 4, graph_mode=True))
    keys = [canonical_key(r) for r in reps]
    assert len(set(keys)) == len(keys)
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(4, rng)
        assert sum(1 for r in reps if isomorphic(g, r)) == 1


ENUMERATION_CASES = ([(GRAPH_VOCAB, n, True) for n in range(1, 8)]
                     + [(GRAPH_VOCAB, n, False) for n in range(1, 5)]
                     + [(parse_vocab_spec("P/1 E/2"), 4, False)]
                     + [(parse_vocab_spec("P/1"), n, False) for n in range(1, 9)])


@pytest.mark.parametrize("vocab,n,graph_mode", ENUMERATION_CASES,
                         ids=[f"{v.spec()}-{n}{'-graphs' if g else ''}"
                              for v, n, g in ENUMERATION_CASES])
def test_enumeration_against_burnside_and_canonical_key(vocab, n, graph_mode):
    """Masks strictly ascend, their number is the Burnside count, and each is
    its structure's canonical key (every 97th structure past 1000 classes).
    Graphs of order 7 and P/1 E/2 at order 4 mark images through a third
    byte chunk."""
    count = burnside_count(vocab, n, graph_mode)
    step = 97 if count > 1000 else 1
    masks = []
    for index, struct in enumerate(enumerate_structures(vocab, n, graph_mode)):
        masks.append(_mask_of(struct, graph_mode))
        if index % step == 0:
            assert canonical_key(struct, graph_mode) == masks[-1]
    assert all(a < b for a, b in zip(masks, masks[1:]))
    assert len(masks) == count


def test_enumeration_guard():
    with pytest.raises(CapExceeded):
        list(enumerate_structures(GRAPH_VOCAB, 9, graph_mode=True))
    # Unary structures fit the width cap at any order up to 24; the order
    # cap stops them before the n! permutations are listed.
    with pytest.raises(CapExceeded, match="capped at order 8"):
        next(enumerate_structures(parse_vocab_spec("P/1"), 9))
    with pytest.raises(InputError):
        list(enumerate_structures(Vocabulary((("P", 1),)), 3, graph_mode=True))


def test_isomorphic_agrees_with_canonical():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 5)
        a, b = random_structure(GRAPH_VOCAB, n, rng), random_structure(GRAPH_VOCAB, n, rng)
        assert isomorphic(a, b) == (find_isomorphism(a, b) is not None)
        assert (canonical_form(a) == canonical_form(b)) == isomorphic(a, b)
    order6 = list(enumerate_structures(GRAPH_VOCAB, 6, graph_mode=True))
    assert isomorphic(graph_complement(order6[12]), order6[150])
    assert canonical_key(graph_complement(order6[12])) == canonical_key(order6[150])


def test_graph_complement(h5):
    comp = graph_complement(h5)
    assert len(comp.tables[0]) == 2 * (10 - 2)
    assert graph_complement(comp) == h5
    with pytest.raises(InputError):
        graph_complement(Structure(GRAPH_VOCAB, 2, [{(0, 0)}]))


def test_fos_round_trip(h5):
    text = format_fos(h5, graph=True)
    back, flag = parse_fos(text)
    assert back == h5 and flag
    assert format_fos(back, flag) == text
    loops = Structure(GRAPH_VOCAB, 2, [{(0, 0), (0, 1)}])
    text = format_fos(loops)
    back, flag = parse_fos(text)
    assert back == loops and not flag


def test_fos_strictness():
    with pytest.raises(InputError):
        parse_fos("vocab E/2\norder 2\nF 0 1\n")
    with pytest.raises(InputError):
        parse_fos("vocab E/2\norder 2\nE 0\n")
    with pytest.raises(InputError):
        parse_fos("vocab E/2\norder 2\nE 0 4\n")
    with pytest.raises(InputError):
        parse_fos("vocab E/2\norder 2\ngraph\nE 0 0\n")
    with pytest.raises(InputError):
        parse_fos("order 2\nvocab E/2\n")
    with pytest.raises(InputError):
        parse_vocab_spec("E2")


def test_fos_comments_and_symmetrization():
    struct, flag = parse_fos("# a graph\nvocab E/2\norder 3\ngraph\nE 2 0 # edge\n")
    assert flag and struct.tables[0] == frozenset({(0, 2), (2, 0)})


def test_loops_allowed_outside_graph_mode():
    looped = Structure(GRAPH_VOCAB, 1, [{(0, 0)}])
    assert looped.holds(0, (0, 0))
    assert not looped.is_graph()


def test_no_module_level_caches():
    # results keyed on a structure live in its memo and are freed with it;
    # the bit layout is keyed on (vocab, order, graph mode). The only module
    # state a function rebinds is two single-entry caches, (key, value)
    # pairs: the last block of bit slices and the last rival corpus.
    cached, rebound = set(), set()
    for info in pkgutil.iter_modules(fid.__path__):
        module = importlib.import_module(f"fid.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for fn in (obj, *members):
                if hasattr(fn, "cache_info"):
                    cached.add(f"{fn.__module__}.{fn.__qualname__}")
        rebound.update(f"{module.__name__}.{name}"
                       for node in ast.walk(ast.parse(inspect.getsource(module)))
                       if isinstance(node, ast.Global) for name in node.names)
    assert cached == {"fid.structures._bit_layout"}
    assert rebound == {"fid.verification._last_slices", "fid.games._last_corpus"}

    for order in (3, 4):
        rivals = tuple(enumerate_structures(GRAPH_VOCAB, order, True))
        verification._slices(GRAPH_VOCAB, order, rivals)
        games.identification_rank(rivals[0], graph_mode=True)
    for entry in (verification._last_slices, games._last_corpus):
        assert isinstance(entry, tuple) and len(entry) == 2
    assert verification._last_slices[0] == (GRAPH_VOCAB, 4, rivals)
    assert games._last_corpus[0] == (GRAPH_VOCAB, 4, True)
    assert {rival.order for rival in games._last_corpus[1][0].values()} == {4}
