"""Similarity, conditional equivalences, their partitions, the two
set-growing transformations, and the layered base decomposition.

Conditional equivalence is decided once, by a per-element signature: the
truth of every symbol on the tuples over X + {a} that use a. For binary
symbols that is a's out- and in-row restricted to X plus its loop bit, read
from the bitmask rows, since the corpus is dominated by (di)graphs. a and b
are equivalent conditioned on X exactly when their signatures are equal, so
C(X) groups the complement of X by signature.

Similar elements are equivalent under every X that contains neither of them,
so a union of C(X) classes is never finer than similarity on the elements it
covers. It equals similarity there exactly when it has as many classes as
there are similarity classes meeting those elements. `is_base` and the
residue audits of the decomposition compare these two counts instead of
testing every pair. The decomposition function audits its own structural
guarantees on every call: the coincidence of the conditional equivalences
with similarity outside the base, and the two counting inequalities that all
the quantifier budgets downstream rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, check
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
    representative per class (valid for genuine equivalence relations).
    Similarity is a property of pairs, so it has no per-element key."""
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


def _signature(struct: Structure, cond):
    """The signature under `cond`, as a function of an element a outside it:
    the truth of every symbol on the tuples over sorted(cond) + [a] that use
    a, in product order; for a binary symbol, a's out- and in-row masked to
    cond and its loop bit."""
    mask = sum(1 << x for x in cond)
    ordered = sorted(cond)
    symbols = [(arity, struct.tables[idx], arity == 2 and struct.binary_rows(idx))
               for idx, (_, arity) in enumerate(struct.vocab.symbols)]

    def of(a: int) -> tuple:
        sig = []
        for arity, table, rows in symbols:
            if rows:
                out, inn = rows
                sig += (out[a] & mask, inn[a] & mask, (a, a) in table)
            else:
                sig += (tup in table for tup in itertools.product(ordered + [a], repeat=arity)
                        if a in tup)
        return tuple(sig)
    return of


def equiv_x(struct: Structure, cond: frozenset[int] | set[int], a: int, b: int) -> bool:
    """a and b are equivalent conditioned on X: the identity on X extended by
    a -> b preserves every relation on every tuple over X + {a}."""
    if a in cond or b in cond:
        raise InputError("conditioned elements must lie outside the condition set")
    if a == b:
        return True
    sig = _signature(struct, cond)
    return sig(a) == sig(b)


def approx_x(struct: Structure, cond: frozenset[int] | set[int], a: int, b: int) -> bool:
    """The transposition (a b) is an automorphism of the substructure induced
    on X + {a, b}. Strictly stronger than equiv_x, which covers the tuples
    that use a alone; those that use b alone are their images under the swap,
    so only the tuples that use both are left to check."""
    if a == b:
        raise InputError("approx_x needs two distinct elements")
    if not equiv_x(struct, cond, a, b):
        return False
    swap = {a: b, b: a}
    base = sorted(cond) + [a, b]
    for idx, (_, arity) in enumerate(struct.vocab.symbols):
        table = struct.tables[idx]
        for tup in itertools.product(base, repeat=arity):
            if a in tup and b in tup and \
                    (tup in table) != (tuple(swap.get(e, e) for e in tup) in table):
                return False
    return True


@memoized
def _classes(struct: Structure, cond: frozenset[int]) -> Partition:
    sig = _signature(struct, cond)
    groups: dict[tuple, list[int]] = {}
    for e in struct.universe():
        if e not in cond:
            groups.setdefault(sig(e), []).append(e)
    return Partition(tuple(map(tuple, groups.values())))


def _like_similarity(struct: Structure, classes) -> bool:
    """Whether `classes`, whole classes of one C(X), are exactly the
    similarity classes on the elements they cover. They are never finer, so
    equal counts decide it."""
    covered = {e for cls in classes for e in cls}
    return len(classes) == sum(not covered.isdisjoint(cls)
                               for cls in sim_classes(struct).classes)


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
    check(grown is None, f"transform_e: no fixed point within {struct.order + 1} steps")
    k = struct.vocab.max_arity
    new_classes = set(_classes(struct, current).classes) - set(_classes(struct, cond).classes)
    check(len(current - cond) <= (k - 1) * len(new_classes),
          "transform_e: expansion bound violated, the set grew faster than its class gain")
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


def counting_terms(struct: Structure, decomp: BaseDecomposition) -> dict:
    """The quantities entering the two counting inequalities, and whether
    each holds. The halved one is claimed for k >= 2 only, and is strict only
    at a non-empty residue: with Z empty every chained estimate can be tight
    (complete graphs of order k+1 attain equality)."""
    k, n = decomp.k, struct.order
    small = [len(_classes(struct, decomp.x[i]).restrict(k + 1)) for i in range(k)]
    full_k = len(_classes(struct, decomp.x[k - 1]))
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
        "a0_holds": a0_lhs >= a0_rhs,
        "b0_holds": b0_lhs > b0_rhs if zs else b0_lhs >= b0_rhs,
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
        yi = _classes(struct, xi).restrict(k + 1).support
        xs.append(xi)
        ys.append(yi)
        prev_x, prev_y = xi, yi
    xs.append(xs[-1] | ys[-1])
    z = frozenset(struct.universe()) - xs[-1]
    decomp = BaseDecomposition(tuple(xs), tuple(ys), z, k)

    stage = f"base decomposition (order {struct.order})"
    for i in range(k):
        check(xs[i] <= xs[i + 1], f"{stage}: layer chain is not increasing at X_{i + 1}")
    for i, j in itertools.combinations(range(k), 2):
        check(not (ys[i] & ys[j]), f"{stage}: small-class layers Y_{i + 1} and Y_{j + 1} overlap")
    # Z, the complement of X_{k+1}, is also the union of the large classes at X_k.
    large = [c for c in _classes(struct, xs[k - 1]).classes if len(c) > k + 1]
    check(_like_similarity(struct, large),
          f"{stage}: conditional equivalence at X_k deviates from similarity on Z")
    check(is_base(struct, xs[k]),
          f"{stage}: conditional equivalence at the base deviates from similarity on Z")

    counts = counting_terms(struct, decomp)
    (a0_lhs, a0_rhs), (b0_lhs, b0_rhs) = counts["a0"], counts["b0"]
    check(counts["a0_holds"],
          f"{stage}: counting inequality (weighted) failed: {a0_lhs} < {a0_rhs}")
    check(k < 2 or counts["b0_holds"], f"{stage}: counting inequality (halved) failed "
          f"at |Z| = {len(z)}: {b0_lhs} against {b0_rhs}")
    return decomp


def is_base(struct: Structure, candidate) -> bool:
    """A set is a base when conditioning on it separates exactly the
    non-similar pairs outside it."""
    return _like_similarity(struct, _classes(struct, frozenset(candidate)).classes)


def fineness(struct: Structure, base: frozenset[int]) -> int:
    """Largest class size conditioned on the base; 0 for the full universe."""
    if len(base) == struct.order:
        return 0
    return max(len(c) for c in _classes(struct, base).classes)
