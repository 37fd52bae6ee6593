"""Similarity, conditional equivalences, their partitions, the two
set-growing transformations, and the layered base decomposition.

All relations here are tuple-table checks over small element sets; binary and
unary symbols take a bitmask fast path since the corpus is dominated by
(di)graphs. The decomposition function audits its own structural guarantees
on every call: the coincidence of the conditional equivalences with
similarity outside the base, and the two counting inequalities that all the
quantifier budgets downstream rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .structures import (Structure, is_partial_isomorphism, memoized,
                         violated_tuple)


@dataclass(frozen=True)
class Partition:
    """Disjoint element classes, each sorted, ordered by minimum element."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def support(self) -> frozenset[int]:
        return frozenset(e for cls in self.classes for e in cls)

    def class_of(self, element: int) -> tuple[int, ...]:
        for cls in self.classes:
            if element in cls:
                return cls
        raise KeyError(element)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    def restrict(self, max_size: int) -> "Partition":
        return Partition(tuple(c for c in self.classes if len(c) <= max_size))


def _build_partition(elements, same) -> Partition:
    """Group `elements` by the equivalence `same`, comparing against one
    representative per class (valid for genuine equivalence relations)."""
    reps: list[int] = []
    groups: list[list[int]] = []
    for e in sorted(elements):
        for i, r in enumerate(reps):
            if same(r, e):
                groups[i].append(e)
                break
        else:
            reps.append(e)
            groups.append([e])
    return Partition(tuple(tuple(g) for g in groups))


def similar(struct: Structure, u: int, v: int) -> bool:
    """True iff transposing u and v (fixing everything else) is an
    automorphism, that is one of the substructure induced on all elements."""
    return u == v or approx_x(struct, frozenset(struct.universe()) - {u, v}, u, v)


@memoized
def sim_classes(struct: Structure) -> Partition:
    """Partition of the full universe into similarity classes."""
    return _build_partition(struct.universe(), lambda a, b: similar(struct, a, b))


def equiv_x(struct: Structure, cond: frozenset[int] | set[int], a: int, b: int) -> bool:
    """a and b are equivalent conditioned on X: the identity on X extended by
    a -> b preserves every relation on every tuple over X + {a}."""
    if a in cond or b in cond:
        raise InputError("conditioned elements must lie outside the condition set")
    if a == b:
        return True
    for idx, (_, arity) in enumerate(struct.vocab.symbols):
        table = struct.tables[idx]
        if arity == 1:
            if ((a,) in table) != ((b,) in table):
                return False
            continue
        if arity == 2:
            mask = 0
            for x in cond:
                mask |= 1 << x
            out, inn = struct.binary_rows(idx)
            if (out[a] & mask) != (out[b] & mask) or (inn[a] & mask) != (inn[b] & mask):
                return False
            if ((a, a) in table) != ((b, b) in table):
                return False
            continue
        base = sorted(cond) + [a]
        for tup in itertools.product(base, repeat=arity):
            if a not in tup:
                continue
            swapped = tuple(b if e == a else e for e in tup)
            if (tup in table) != (swapped in table):
                return False
    return True


def approx_x(struct: Structure, cond: frozenset[int] | set[int], a: int, b: int) -> bool:
    """The transposition (a b) is an automorphism of the substructure induced
    on X + {a, b}. Strictly stronger than equiv_x."""
    if a == b:
        raise InputError("approx_x needs two distinct elements")
    if a in cond or b in cond:
        raise InputError("conditioned elements must lie outside the condition set")
    for idx, (_, arity) in enumerate(struct.vocab.symbols):
        table = struct.tables[idx]
        if arity == 1:
            if ((a,) in table) != ((b,) in table):
                return False
            continue
        if arity == 2:
            mask = 0
            for x in cond:
                mask |= 1 << x
            out, inn = struct.binary_rows(idx)
            if (out[a] & mask) != (out[b] & mask) or (inn[a] & mask) != (inn[b] & mask):
                return False
            if ((a, a) in table) != ((b, b) in table):
                return False
            if ((a, b) in table) != ((b, a) in table):
                return False
            continue
        base = sorted(cond) + [a, b]
        for tup in itertools.product(base, repeat=arity):
            if a not in tup and b not in tup:
                continue
            swapped = tuple(b if e == a else a if e == b else e for e in tup)
            if (tup in table) != (swapped in table):
                return False
    return True


@memoized
def _classes(struct: Structure, cond: frozenset[int]) -> Partition:
    rest = [e for e in struct.universe() if e not in cond]
    return _build_partition(rest, lambda a, b: equiv_x(struct, cond, a, b))


def classes_of(struct: Structure, cond, max_size: int | None = None) -> Partition:
    """The conditional-equivalence partition of the complement of `cond`;
    with max_size set, only classes of at most that size are kept."""
    cond = frozenset(cond)
    if any(not (0 <= e < struct.order) for e in cond):
        raise InputError("condition set contains elements outside the universe")
    if len(cond) == struct.order:
        raise InputError("condition set must be a proper subset of the universe")
    part = _classes(struct, cond)
    return part if max_size is None else part.restrict(max_size)


def equiv_phi(m1: Structure, m2: Structure, phi: dict[int, int], a: int, a2: int) -> bool:
    """phi extended by a -> a2 is still a partial isomorphism. phi itself must
    be one, with a outside its domain and a2 outside its range."""
    if not is_partial_isomorphism(m1, m2, phi):
        raise InputError("phi is not a partial isomorphism")
    if not (0 <= a < m1.order and 0 <= a2 < m2.order):
        raise InputError("extension point out of range")
    if a in phi or a2 in phi.values():
        raise InputError("extension point already covered by phi")
    return violated_tuple(m1, m2, {**phi, a: a2}, a) is None


def transform_t(struct: Structure, cond) -> frozenset[int] | None:
    """One strict refinement step: the first small set S (sizes 1..k-1, then
    lexicographic) whose addition increases the class count, or None."""
    cond = frozenset(cond)
    k = struct.vocab.max_arity
    rest = sorted(e for e in struct.universe() if e not in cond)
    if not rest:
        return None
    base_count = len(_classes(struct, cond))
    for size in range(1, k):
        for extra in itertools.combinations(rest, size):
            grown = cond | set(extra)
            if len(_classes(struct, grown)) > base_count:
                return frozenset(grown)
    return None


def transform_e(struct: Structure, cond) -> frozenset[int]:
    """Least fixed point of transform_t. Each step strictly grows the set, so
    at most n steps happen; the expansion inequality is asserted on exit."""
    cond = frozenset(cond)
    current = cond
    for _ in range(struct.order + 1):
        grown = transform_t(struct, current)
        if grown is None:
            break
        current = grown
    else:
        raise AssertionError("transform_e failed to reach a fixed point")
    k = struct.vocab.max_arity
    new_classes = set(_classes(struct, current).classes) - set(_classes(struct, cond).classes)
    assert len(current - cond) <= (k - 1) * len(new_classes), \
        "expansion bound violated: transform_e grew faster than its class gain"
    return current


@dataclass(frozen=True)
class BaseDecomposition:
    """Layered sets X_1..X_{k+1}, Y_1..Y_k, and the residue Z. The last layer
    X_{k+1} is the constructed base."""

    x: tuple[frozenset[int], ...]
    y: tuple[frozenset[int], ...]
    z: frozenset[int]
    k: int

    @property
    def base(self) -> frozenset[int]:
        return self.x[-1]


def _class_count(struct: Structure, cond: frozenset[int], max_size: int | None = None) -> int:
    if len(cond) == struct.order:
        return 0
    part = _classes(struct, cond)
    if max_size is not None:
        part = part.restrict(max_size)
    return len(part)


def counting_terms(struct: Structure, decomp: BaseDecomposition) -> dict:
    """The quantities entering the two counting inequalities."""
    k, n = decomp.k, struct.order
    small = [_class_count(struct, decomp.x[i], k + 1) for i in range(k)]
    full_k = _class_count(struct, decomp.x[k - 1])
    zs = len(decomp.z)
    a0_lhs = 2 * k * sum(small[:-1]) + (k + 1) * small[-1] + (k - 1) * full_k + zs
    a0_rhs = n + k - 1
    b0_lhs = Fraction(2 * sum(small) + zs, 2)
    b0_rhs = Fraction(n, 2 * k) + Fraction(1, 2) - Fraction(1, 2 * k)
    return {
        "small_counts": tuple(small),
        "full_count_k": full_k,
        "z_size": zs,
        "a0": (a0_lhs, a0_rhs),
        "b0": (b0_lhs, b0_rhs),
    }


@memoized
def base_decomposition(struct: Structure) -> BaseDecomposition:
    """Layered construction: X_i grows by transform_e, Y_i collects the small
    classes, X_{k+1} = X_k + Y_k, Z is everything else.

    Audited on every call: outside the base the conditional equivalences at
    X_k and X_{k+1} coincide with plain similarity, and both counting
    inequalities hold. A failure here is an implementation bug, not bad input.
    """
    k = struct.vocab.max_arity
    xs: list[frozenset[int]] = []
    ys: list[frozenset[int]] = []
    prev_x: frozenset[int] = frozenset()
    prev_y: frozenset[int] = frozenset()
    for _ in range(k):
        xi = transform_e(struct, prev_x | prev_y)
        small = _classes(struct, xi).restrict(k + 1) if len(xi) < struct.order \
            else Partition(())
        yi = frozenset(e for cls in small.classes for e in cls)
        xs.append(xi)
        ys.append(yi)
        prev_x, prev_y = xi, yi
    xs.append(xs[-1] | ys[-1])
    z = frozenset(struct.universe()) - xs[-1]
    decomp = BaseDecomposition(tuple(xs), tuple(ys), z, k)

    for i in range(k):
        assert xs[i] <= xs[i + 1], "layer chain is not increasing"
    for i in range(k):
        for j in range(i + 1, k):
            assert not (ys[i] & ys[j]), "small-class layers overlap"

    z_list = sorted(z)
    for ai in range(len(z_list)):
        for bi in range(ai + 1, len(z_list)):
            a, b = z_list[ai], z_list[bi]
            sim = similar(struct, a, b)
            assert equiv_x(struct, xs[k - 1], a, b) == sim, \
                "conditional equivalence at X_k deviates from similarity on Z"
            assert equiv_x(struct, xs[k], a, b) == sim, \
                "conditional equivalence at the base deviates from similarity on Z"

    counts = counting_terms(struct, decomp)
    a0_lhs, a0_rhs = counts["a0"]
    assert a0_lhs >= a0_rhs, f"counting inequality (weighted) failed: {a0_lhs} < {a0_rhs}"
    if k >= 2:
        b0_lhs, b0_rhs = counts["b0"]
        # Non-strict at Z = 0: every chained estimate can be tight then
        # (complete graphs of order k+1 attain equality).
        if len(z) > 0:
            assert b0_lhs > b0_rhs, f"counting inequality (halved) failed: {b0_lhs} <= {b0_rhs}"
        else:
            assert b0_lhs >= b0_rhs, f"counting inequality (halved) failed: {b0_lhs} < {b0_rhs}"
    return decomp


def is_base(struct: Structure, candidate) -> bool:
    """A set is a base when conditioning on it separates exactly the
    non-similar pairs outside it."""
    candidate = frozenset(candidate)
    rest = [e for e in struct.universe() if e not in candidate]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            a, b = rest[i], rest[j]
            if equiv_x(struct, candidate, a, b) != similar(struct, a, b):
                return False
    return True


def fineness(struct: Structure, base: frozenset[int]) -> int:
    """Largest class size conditioned on the base; 0 for the full universe."""
    if len(base) == struct.order:
        return 0
    return max(len(c) for c in _classes(struct, base).classes)
