import itertools
import random

import pytest

from conftest import graph
from oracles import (brute_approx_x, brute_classes, brute_equiv_x,
                     brute_is_base, brute_similar, random_graph,
                     random_structure)

from fid.errors import InputError
from fid.structures import GRAPH_VOCAB, enumerate_structures, parse_vocab_spec
from fid.equivalences import (base_decomposition, classes_of, counting_terms,
                              equiv_phi, equiv_x, approx_x, fineness, is_base,
                              sim_classes, similar, transform_e, transform_t)


def all_small_graphs(max_order):
    for n in range(1, max_order + 1):
        yield from enumerate_structures(GRAPH_VOCAB, n, graph_mode=True)


def mixed_arity_structures(seed, count=15):
    """Random order-4 P/1 E/2 T/3 structures, reaching the unary and
    general-arity branches; sparse tables keep equivalent pairs common."""
    rng = random.Random(seed)
    mixed = parse_vocab_spec("P/1 E/2 T/3")
    return [random_structure(mixed, 4, rng, rng.random() ** 3) for _ in range(count)]


def proper_subsets(n):
    for size in range(n):
        yield from itertools.combinations(range(n), size)


def test_similar_examples(p3, k3, h5):
    assert similar(k3, 0, 1) and similar(k3, 1, 2)
    assert similar(p3, 0, 2) and not similar(p3, 0, 1)
    assert similar(h5, 3, 4)
    assert similar(p3, 1, 1)


def test_similar_matches_oracle():
    rng = random.Random(17)
    cases = [random_structure(GRAPH_VOCAB, rng.randrange(2, 5), rng) for _ in range(30)]
    # a ternary symbol reaches the general-arity check; sparse tables keep
    # similar pairs common there
    mixed = parse_vocab_spec("P/1 E/2 T/3")
    cases += [random_structure(mixed, rng.randrange(2, 5), rng, rng.random() ** 3)
              for _ in range(40)]
    for s in cases:
        for u, v in itertools.combinations(range(s.order), 2):
            assert similar(s, u, v) == brute_similar(s, u, v)


def test_sim_classes(p3, k3, h5, i5):
    assert sim_classes(k3).classes == ((0, 1, 2),)
    assert sim_classes(h5).classes == ((0, 2), (1,), (3, 4))
    assert sim_classes(i5).classes == ((0, 1, 2, 3, 4),)


def test_sim_is_equivalence_relation():
    # transitivity via the partition construction matching pairwise checks
    rng = random.Random(23)
    for _ in range(20):
        s = random_structure(GRAPH_VOCAB, 4, rng)
        part = sim_classes(s)
        for cls in part.classes:
            for a, b in itertools.combinations(cls, 2):
                assert similar(s, a, b)
        for c1, c2 in itertools.combinations(part.classes, 2):
            assert not similar(s, c1[0], c2[0])


def test_equiv_x_examples(p3):
    assert equiv_x(p3, frozenset({1}), 0, 2)
    assert not equiv_x(p3, frozenset({2}), 0, 1)
    assert equiv_x(p3, frozenset(), 0, 1)
    with pytest.raises(InputError):
        equiv_x(p3, frozenset({0}), 0, 1)


def test_approx_x_follows_the_induced_substructure(p3, edge2):
    assert approx_x(edge2, frozenset(), 0, 1)
    # only tuples over the condition set plus the pair matter
    assert approx_x(p3, frozenset(), 0, 1)
    assert not approx_x(p3, frozenset({2}), 0, 1)
    with pytest.raises(InputError):
        approx_x(p3, frozenset(), 1, 1)


def test_conditional_equivalences_match_oracle():
    rng = random.Random(31)
    cases = [random_structure(GRAPH_VOCAB, 4, rng) for _ in range(25)]
    for s in cases + mixed_arity_structures(37):
        for cond in proper_subsets(4):
            rest = [e for e in range(4) if e not in cond]
            for a, b in itertools.combinations(rest, 2):
                cond_f = frozenset(cond)
                assert equiv_x(s, cond_f, a, b) == brute_equiv_x(s, cond, a, b)
                assert approx_x(s, cond_f, a, b) == brute_approx_x(s, cond, a, b)


def test_approx_implies_equiv():
    for struct in all_small_graphs(4):
        n = struct.order
        for size in range(n):
            for cond in itertools.combinations(range(n), size):
                rest = [e for e in range(n) if e not in cond]
                for a, b in itertools.combinations(rest, 2):
                    if approx_x(struct, frozenset(cond), a, b):
                        assert equiv_x(struct, frozenset(cond), a, b)


def test_classes_of_examples(p3, k3, h5):
    assert classes_of(k3, {0}).classes == ((1, 2),)
    assert classes_of(p3, {0}).classes == ((1,), (2,))
    assert classes_of(h5, {1}).classes == ((0, 2), (3, 4))
    assert classes_of(h5, {1}, max_size=1).classes == ()
    with pytest.raises(InputError):
        classes_of(p3, {0, 1, 2})


def test_classes_match_oracle():
    rng = random.Random(41)
    cases = [random_structure(GRAPH_VOCAB, 4, rng) for _ in range(20)]
    for s in cases + mixed_arity_structures(43):
        for cond in proper_subsets(4):
            got = [tuple(c) for c in classes_of(s, cond).classes]
            assert got == brute_classes(s, cond)


def test_is_base_matches_oracle():
    cases = list(all_small_graphs(5)) + mixed_arity_structures(47)
    for s in cases:
        for size in range(s.order + 1):
            for cond in itertools.combinations(range(s.order), size):
                assert is_base(s, frozenset(cond)) == brute_is_base(s, cond)


def test_refinement_under_growth():
    # growing the condition set refines the partition on the smaller support
    rng = random.Random(43)
    for _ in range(20):
        s = random_graph(5, rng)
        small = frozenset(rng.sample(range(5), 1))
        big = small | frozenset(rng.sample(range(5), 2))
        if len(big) >= 5:
            continue
        fine = classes_of(s, big)
        coarse = classes_of(s, small)
        for cls in fine.classes:
            assert any(set(cls) <= set(c) for c in coarse.classes)
        # similarity classes refine every conditional partition
        for cls in sim_classes(s).classes:
            trimmed = set(cls) - small
            if trimmed:
                assert any(trimmed <= set(c) for c in coarse.classes)


def test_equiv_phi_examples(p3):
    assert equiv_phi(p3, p3, {1: 1}, 0, 2)
    assert not equiv_phi(p3, p3, {2: 2}, 0, 1)
    with pytest.raises(InputError):
        equiv_phi(p3, p3, {0: 0, 1: 2}, 2, 1)
    with pytest.raises(InputError):
        equiv_phi(p3, p3, {1: 1}, 1, 0)
    for a, a2 in ((3, 0), (0, 3), (-1, 0)):
        with pytest.raises(InputError):
            equiv_phi(p3, p3, {1: 1}, a, a2)


def test_back_and_forth_properties():
    """The four one-point extension facts for partial isomorphisms."""
    rng = random.Random(47)
    checked = 0
    while checked < 60:
        n = rng.randrange(3, 5)
        m1 = random_graph(n, rng)
        m2 = random_graph(n, rng)
        size = rng.randrange(0, n - 1)
        dom = rng.sample(range(n), size)
        img = rng.sample(range(n), size)
        phi = dict(zip(dom, img))
        from fid.structures import is_partial_isomorphism
        if not is_partial_isomorphism(m1, m2, phi):
            continue
        checked += 1
        cond = frozenset(phi)
        cond2 = frozenset(phi.values())
        outside1 = [e for e in range(n) if e not in cond]
        outside2 = [e for e in range(n) if e not in cond2]
        # item 1: equivalent replacements preserve the extension relation
        for a, b in itertools.combinations(outside1, 2):
            if not equiv_x(m1, cond, a, b):
                continue
            for a2, b2 in itertools.permutations(outside2, 2):
                if equiv_x(m2, cond2, a2, b2):
                    assert equiv_phi(m1, m2, phi, a, a2) == \
                        equiv_phi(m1, m2, phi, b, b2)
        # items 3 and 4: any proper extension stays pointwise compatible
        for a in outside1:
            for a2 in outside2:
                ext = dict(phi)
                ext[a] = a2
                if not is_partial_isomorphism(m1, m2, ext):
                    continue
                assert equiv_phi(m1, m2, phi, a, a2)
                for b in outside1:
                    if b == a:
                        continue
                    for b2 in outside2:
                        if b2 == a2:
                            continue
                        ext2 = dict(ext)
                        ext2[b] = b2
                        if is_partial_isomorphism(m1, m2, ext2):
                            assert equiv_x(m1, cond, a, b) == \
                                equiv_x(m2, cond2, a2, b2)


def test_transform_t_examples(p3, k3, i5):
    assert transform_t(p3, frozenset()) == frozenset({0})
    assert transform_t(k3, frozenset()) is None
    assert transform_t(i5, frozenset()) is None


def test_transform_t_first_witness_is_minimal():
    # the returned set is the first one in (size, lexicographic) order
    rng = random.Random(53)
    for _ in range(20):
        s = random_structure(GRAPH_VOCAB, 5, rng)
        grown = transform_t(s, frozenset())
        if grown is None:
            continue
        added = sorted(grown)
        base_count = len(classes_of(s, frozenset()))
        for extra in itertools.combinations(range(5), len(added)):
            if list(extra) == added:
                break
            assert len(classes_of(s, frozenset(extra))) <= base_count


def test_transform_e(p3, k3):
    assert transform_e(p3, frozenset()) == frozenset({0})
    assert transform_e(k3, frozenset()) == frozenset()
    # fixed point property
    for struct in all_small_graphs(4):
        fixed = transform_e(struct, frozenset())
        assert transform_t(struct, fixed) is None


def test_stalled_growth_forces_substructure_symmetry():
    """When no small set refines the partition, large classes are symmetric
    even through the induced substructure."""
    for struct in all_small_graphs(4):
        for size in range(struct.order):
            for cond in itertools.combinations(range(struct.order), size):
                cond_f = frozenset(cond)
                if transform_t(struct, cond_f) is not None:
                    continue
                for cls in classes_of(struct, cond_f).classes:
                    if len(cls) < 3:
                        continue
                    for a, b in itertools.combinations(cls, 2):
                        assert approx_x(struct, cond_f, a, b)
    rng = random.Random(59)
    for _ in range(15):
        s = random_graph(5, rng)
        for size in range(3):
            cond_f = frozenset(rng.sample(range(5), size))
            if transform_t(s, cond_f) is not None:
                continue
            for cls in classes_of(s, cond_f).classes:
                if len(cls) >= 3:
                    for a, b in itertools.combinations(cls, 2):
                        assert approx_x(s, cond_f, a, b)


def test_base_decomposition_worked_examples(p3, k3, i5):
    d = base_decomposition(i5)
    assert d.x == (frozenset(), frozenset(), frozenset())
    assert d.y == (frozenset(), frozenset())
    assert d.z == frozenset(range(5))

    d = base_decomposition(k3)
    assert d.x[0] == frozenset() and d.y[0] == frozenset({0, 1, 2})
    assert d.base == frozenset({0, 1, 2}) and d.z == frozenset()

    d = base_decomposition(p3)
    assert d.x[0] == frozenset({0}) and d.y[0] == frozenset({1, 2})
    assert d.x[1] == frozenset({0, 1, 2}) and d.z == frozenset()


def test_base_decomposition_audits_run_everywhere():
    for struct in all_small_graphs(5):
        base_decomposition(struct)
    rng = random.Random(61)
    for _ in range(25):
        base_decomposition(random_structure(GRAPH_VOCAB, rng.randrange(2, 7), rng))


def test_is_base(p3, k3, h5):
    assert is_base(k3, frozenset())
    assert is_base(p3, frozenset({0}))
    assert not is_base(h5, frozenset())
    for struct in (p3, k3, h5):
        assert is_base(struct, frozenset(range(struct.order - 1)))
        assert is_base(struct, base_decomposition(struct).base)


def test_fineness():
    assert fineness(graph(5, []), frozenset()) == 5
    assert fineness(graph(3, [(0, 1), (1, 2)]), frozenset({0})) == 1
    assert fineness(graph(2, []), frozenset({0, 1})) == 0


def test_counting_quantities_positive(p3, k3, i5):
    for struct in (p3, k3, i5):
        counts = counting_terms(struct, base_decomposition(struct))
        lhs, rhs = counts["a0"]
        assert lhs >= rhs
