"""Finite relational structures over a fixed universe {0..n-1}.

Representation, induced substructures, and the one place where isomorphism
is decided: a single tuple-preservation check (`violated_tuple`), a single
profile-pruned backtracker (`isomorphisms`, behind `find_isomorphism`,
`automorphisms` and `isomorphic`), and a single canonical mask
(`canonical_key`). Structures are enumerated up to isomorphism by an orbit
sweep over raw bit tables. Results computed from one structure are
memoized on the structure itself (`memoized`), so they are freed with it.

The bit layout used throughout is "staged": bit positions are grouped by the
maximum element occurring in the tuple, so that fixing the images of
elements 0..d decides stages 0..d of the encoding. The canonical search
shares those stages between relabellings with a common prefix, and the
enumeration yields the smallest mask of each class, so the canonical key of
a structure is the mask of its enumeration representative.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import lru_cache, wraps
from operator import itemgetter, or_

from .errors import CapExceeded, InputError

DEFAULT_CANON_CAP = 8
DEFAULT_ENUM_BITS = 24


@dataclass(frozen=True)
class Vocabulary:
    """Ordered relation symbols with arities; max_arity is the arity bound k."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.symbols:
            raise InputError("vocabulary must contain at least one symbol")
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate symbol names in vocabulary: {names}")
        for name, arity in self.symbols:
            if not name or not isinstance(name, str):
                raise InputError("symbol names must be nonempty strings")
            if arity < 1:
                raise InputError(f"symbol {name} has arity {arity}; arities must be >= 1")

    @property
    def max_arity(self) -> int:
        return max(arity for _, arity in self.symbols)

    def index_of(self, name: str) -> int:
        for i, (sym, _) in enumerate(self.symbols):
            if sym == name:
                return i
        raise InputError(f"unknown relation symbol {name!r}")

    def spec(self) -> str:
        return " ".join(f"{name}/{arity}" for name, arity in self.symbols)


GRAPH_VOCAB = Vocabulary((("E", 2),))


def memoized(fn):
    """Cache fn(struct, *args) in the structure's own memo, keyed by the
    function and the arguments, so the entries are freed with the
    structure. Arguments must be hashable; fn never returns None."""
    @wraps(fn)
    def wrapper(struct, *args):
        key = (fn, *args)
        value = struct._memo.get(key)
        if value is None:
            value = struct._memo[key] = fn(struct, *args)
        return value
    return wrapper


class Structure:
    """Immutable finite structure: universe {0..order-1} plus one tuple set
    per relation symbol (tuple present <=> relation value 1)."""

    __slots__ = ("vocab", "order", "tables", "_hash", "_memo")

    def __init__(self, vocab: Vocabulary, order: int, tables):
        if order < 1:
            raise InputError(f"structures must have order >= 1, got {order}")
        tables = tuple(frozenset(map(tuple, t)) for t in tables)
        if len(tables) != len(vocab.symbols):
            raise InputError("one table per vocabulary symbol is required")
        for (name, arity), table in zip(vocab.symbols, tables):
            for tup in table:
                if len(tup) != arity:
                    raise InputError(f"tuple {tup} has wrong length for {name}/{arity}")
                if any(not (0 <= e < order) for e in tup):
                    raise InputError(f"tuple {tup} of {name} out of range for order {order}")
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "_hash", hash((vocab, order, tables)))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, *args):
        raise AttributeError("Structure is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Structure):
            return NotImplemented
        return (self._hash == other._hash and self.order == other.order
                and self.vocab == other.vocab and self.tables == other.tables)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        sizes = ", ".join(f"{name}:{len(t)}" for (name, _), t in zip(self.vocab.symbols, self.tables))
        return f"Structure(order={self.order}, {sizes})"

    def holds(self, sym_idx: int, tup: tuple[int, ...]) -> bool:
        return tup in self.tables[sym_idx]

    def universe(self) -> range:
        return range(self.order)

    @memoized
    def binary_rows(self, sym_idx: int):
        """(out_rows, in_rows) bitmask adjacency for an arity-2 symbol."""
        out = [0] * self.order
        inn = [0] * self.order
        for a, b in self.tables[sym_idx]:
            out[a] |= 1 << b
            inn[b] |= 1 << a
        return tuple(out), tuple(inn)

    def is_graph(self) -> bool:
        """Single binary symbol, symmetric, irreflexive."""
        if len(self.vocab.symbols) != 1 or self.vocab.symbols[0][1] != 2:
            return False
        table = self.tables[0]
        return all(a != b and (b, a) in table for a, b in table)


def relabel(struct: Structure, perm) -> Structure:
    """Apply a universe permutation; perm[v] is the new label of v."""
    tables = [
        [tuple(perm[e] for e in tup) for tup in table]
        for table in struct.tables
    ]
    return Structure(struct.vocab, struct.order, tables)


def graph_complement(struct: Structure) -> Structure:
    """Complement of a graph: same vertices, exactly the missing edges."""
    if not struct.is_graph():
        raise InputError("complement is defined for graphs only")
    n = struct.order
    table = {(i, j) for i in range(n) for j in range(n) if i != j} - struct.tables[0]
    return Structure(struct.vocab, n, [table])


def induced(struct: Structure, elements) -> tuple[Structure, dict[int, int]]:
    """Substructure induced on `elements`, relabeled to {0..m-1} preserving
    ascending element order. Also returns the relabeling map old -> new."""
    elems = sorted(set(elements))
    if not elems:
        raise InputError("induced substructure needs a nonempty element set")
    if any(not (0 <= e < struct.order) for e in elems):
        raise InputError(f"elements {elems} out of range for order {struct.order}")
    remap = {e: i for i, e in enumerate(elems)}
    keep = set(elems)
    tables = [
        [tuple(remap[e] for e in tup) for tup in table if keep.issuperset(tup)]
        for table in struct.tables
    ]
    return Structure(struct.vocab, len(elems), tables), remap


def is_partial_isomorphism(a: Structure, b: Structure, mapping: dict[int, int]) -> bool:
    """True iff `mapping` (an injective finite map) preserves every relation on
    every tuple over its domain, in both truth values."""
    if a.vocab != b.vocab:
        raise InputError("partial isomorphism requires equal vocabularies")
    if any(not (0 <= e < a.order) for e in mapping):
        raise InputError("domain element out of range")
    if any(not (0 <= e < b.order) for e in mapping.values()):
        raise InputError("range element out of range")
    return len(set(mapping.values())) == len(mapping) \
        and violated_tuple(a, b, mapping) is None


def violated_tuple(a: Structure, b: Structure, mapping: dict[int, int],
                   new: int | None = None) -> tuple[int, tuple[int, ...]] | None:
    """The first (sym_idx, tup) over dom(mapping) whose truth value in `a`
    differs from that of its image under `mapping` in `b`, or None.

    Symbols are searched in vocabulary order, tuples in the order of
    itertools.product(mapping, repeat=arity) over the mapping's key order.
    With `new`, only the tuples that contain `new` are checked: if `mapping`
    is injective and a partial isomorphism without `new`, None makes it one
    with `new`. The one check behind every partial-isomorphism test,
    isomorphism search and game move; callers keep injectivity themselves."""
    image = mapping.__getitem__
    for idx, (_, arity) in enumerate(a.vocab.symbols):
        ta, tb = a.tables[idx], b.tables[idx]
        if arity == 2 and new is not None:
            # The product order restricted to pairs through `new`, without
            # building the others: every game move and isomorphism step
            # lands here.
            img = mapping[new]
            for x, y in mapping.items():
                if x != new:
                    if ((x, new) in ta) != ((y, img) in tb):
                        return idx, (x, new)
                    continue
                for x2, y2 in mapping.items():
                    if ((new, x2) in ta) != ((img, y2) in tb):
                        return idx, (new, x2)
            continue
        for tup in itertools.product(mapping, repeat=arity):
            if (new is None or new in tup) \
                    and (tup in ta) != (tuple(map(image, tup)) in tb):
                return idx, tup
    return None


def _profile(struct: Structure, v: int):
    sig = []
    for table in struct.tables:
        cnt = sum(1 for tup in table if v in tup)
        self_cnt = sum(1 for tup in table if all(e == v for e in tup))
        sig.append((cnt, self_cnt))
    return tuple(sig)


def isomorphisms(a: Structure, b: Structure):
    """Yield every isomorphism a -> b as the tuple of images of 0..n-1, in
    lexicographic order. The backtracking maps 0,1,2,... in turn and tries
    only images with the same per-element profile."""
    if a.vocab != b.vocab:
        raise InputError("isomorphism requires equal vocabularies")
    if a.order != b.order:
        return
    if any(len(ta) != len(tb) for ta, tb in zip(a.tables, b.tables)):
        return
    n = a.order
    prof_a = [_profile(a, v) for v in range(n)]
    prof_b = prof_a if b is a else [_profile(b, v) for v in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return
    images = [[img for img in range(n) if prof_b[img] == prof_a[src]]
              for src in range(n)]
    mapping: dict[int, int] = {}
    used = [False] * n

    def backtrack(src: int):
        if src == n:
            yield tuple(mapping.values())
            return
        for img in images[src]:
            if used[img]:
                continue
            mapping[src] = img
            if violated_tuple(a, b, mapping, src) is None:
                used[img] = True
                yield from backtrack(src + 1)
                used[img] = False
            del mapping[src]

    yield from backtrack(0)


def find_isomorphism(a: Structure, b: Structure) -> dict[int, int] | None:
    """The lexicographically first isomorphism a -> b, or None."""
    perm = next(isomorphisms(a, b), None)
    return None if perm is None else dict(enumerate(perm))


def automorphisms(struct: Structure) -> list[tuple[int, ...]]:
    """All automorphisms, in lexicographic order, as a fresh list."""
    return list(_automorphism_group(struct))


@memoized
def _automorphism_group(struct: Structure) -> tuple[tuple[int, ...], ...]:
    return tuple(isomorphisms(struct, struct))


# ---------------------------------------------------------------------------
# Staged bit layout, canonical forms, enumeration.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bit_layout(vocab: Vocabulary, n: int, graph_mode: bool):
    """Tuple of (sym_idx, tup) positions, staged by max element, then symbol,
    then lexicographic tuple order. Graph mode uses unordered loop-free pairs."""
    positions = []
    stage_start = []
    for d in range(n):
        stage_start.append(len(positions))
        if graph_mode:
            positions.extend((0, (i, d)) for i in range(d))
        else:
            for idx, (_, arity) in enumerate(vocab.symbols):
                for tup in itertools.product(range(d + 1), repeat=arity):
                    if max(tup) == d:
                        positions.append((idx, tup))
    stage_start.append(len(positions))
    return tuple(positions), tuple(stage_start)


def _mask_of(struct: Structure, graph_mode: bool = False) -> int:
    positions, _ = _bit_layout(struct.vocab, struct.order, graph_mode)
    mask = 0
    for i, (sym, tup) in enumerate(positions):
        if struct.holds(sym, tup):
            mask |= 1 << i
    return mask


def _structure_from_mask(vocab: Vocabulary, n: int, mask: int, graph_mode: bool) -> Structure:
    positions, _ = _bit_layout(vocab, n, graph_mode)
    tables = [[] for _ in vocab.symbols]
    for i, (sym, tup) in enumerate(positions):
        if mask >> i & 1:
            tables[sym].append(tup)
            if graph_mode:
                tables[sym].append((tup[1], tup[0]))
    return Structure(vocab, n, tables)


def canonical_key(struct: Structure, graph_mode: bool = False) -> int:
    """The staged mask of the enumeration representative of the structure's
    class: the smallest mask over all relabellings, in the graph layout when
    `graph_mode`. Equal keys <=> isomorphic structures.

    A depth-first search places an element at position 0, 1, ... in turn.
    Placing position d decides stage d, so each prefix of placements computes
    its stages' bits once for every relabelling that shares it."""
    n = struct.order
    if n > DEFAULT_CANON_CAP:
        raise CapExceeded(
            f"canonicalization is capped at order {DEFAULT_CANON_CAP}, got {n}")
    if graph_mode and not struct.is_graph():
        raise InputError("the graph layout needs a symmetric loop-free structure")
    positions, stage_start = _bit_layout(struct.vocab, n, graph_mode)
    stages = [[(1 << i, struct.tables[sym], tup)
               for i, (sym, tup) in enumerate(positions[lo:hi], lo)]
              for lo, hi in zip(stage_start, stage_start[1:])]
    src_at = [0] * n
    used = [False] * n
    best = None

    def place(d: int, mask: int):
        nonlocal best
        if d == n:
            if best is None or mask < best:
                best = mask
            return
        for src in range(n):
            if used[src]:
                continue
            src_at[d] = src
            bits = mask
            for bit, table, tup in stages[d]:
                if tuple(map(src_at.__getitem__, tup)) in table:
                    bits |= bit
            used[src] = True
            place(d + 1, bits)
            used[src] = False

    place(0, 0)
    return best


def canonical_form(struct: Structure) -> bytes:
    """Byte encoding of the canonical key, prefixed with order and vocabulary."""
    return f"{struct.vocab.spec()}|{struct.order}|{canonical_key(struct):x}".encode()


def isomorphic(a: Structure, b: Structure) -> bool:
    if a.vocab != b.vocab:
        return False
    return find_isomorphism(a, b) is not None


def _orbit_columns(positions, n: int, graph_mode: bool) -> list[list[array]]:
    """Per byte chunk c and byte value v, the images of the mask v << 8c under
    every permutation of {0..n-1}, as one array. Every column lists the
    permutations in the same order, so the images of a whole mask are the
    element-wise OR of its chunks' columns."""
    bit_of: dict[int, dict] = {}
    for i, (sym, tup) in enumerate(positions):
        bit_of.setdefault(sym, {})[tup] = 1 << i
        if graph_mode:
            bit_of[sym][tup[::-1]] = 1 << i
    perms = list(itertools.permutations(range(n)))
    image_of = [list(map(itemgetter(e), perms)) for e in range(n)]
    bit_columns = [array("I", map(bit_of[sym].__getitem__,
                                  zip(*map(image_of.__getitem__, tup))))
                   for sym, tup in positions]
    columns = []
    # A width-0 layout still gets one chunk: the empty mask maps to itself.
    for base in range(0, max(len(positions), 1), 8):
        bits = bit_columns[base:base + 8]
        col = [array("I", [0]) * len(perms)]
        for v in range(1, 1 << len(bits)):
            low = v & -v
            col.append(bits[low.bit_length() - 1] if v == low
                       else array("I", map(or_, col[v ^ low], col[low])))
        columns.append(col)
    return columns


def enumerate_structures(vocab: Vocabulary, n: int, graph_mode: bool = False,
                         max_bits: int = DEFAULT_ENUM_BITS):
    """Yield exactly one representative per isomorphism class, in ascending
    order of the staged bit encoding (each representative is the minimum
    encoding of its class).

    An orbit sweep over all 2^width raw tables: the smallest unseen mask is
    the next representative, and its images under all n! relabellings are
    marked seen. The first step raises CapExceeded, before any permutation
    is listed, when the width exceeds `max_bits` or n exceeds
    DEFAULT_CANON_CAP (which bounds the columns at 8! * 3 * 256 entries)."""
    if n < 1:
        raise InputError("enumeration needs order >= 1")
    if graph_mode and (len(vocab.symbols) != 1 or vocab.symbols[0][1] != 2):
        raise InputError("graph mode requires a single binary symbol")
    positions, _ = _bit_layout(vocab, n, graph_mode)
    width = len(positions)
    if width > max_bits:
        raise CapExceeded(
            f"enumeration would sweep 2^{width} raw tables (cap 2^{max_bits})")
    if n > DEFAULT_CANON_CAP:
        raise CapExceeded(
            f"enumeration is capped at order {DEFAULT_CANON_CAP}, got {n}")

    columns = _orbit_columns(positions, n, graph_mode)
    higher = columns[1:]
    seen = bytearray(1 << width)
    mask = 0
    while mask >= 0:
        images = columns[0][mask & 0xFF]
        rest = mask >> 8
        for col in higher:
            if rest & 0xFF:
                images = map(or_, images, col[rest & 0xFF])
            rest >>= 8
        for img in images:
            seen[img] = 1
        yield _structure_from_mask(vocab, n, mask, graph_mode)
        mask = seen.find(0, mask + 1)


# ---------------------------------------------------------------------------
# .fos text format.
# ---------------------------------------------------------------------------

def parse_vocab_spec(spec: str) -> Vocabulary:
    """Parse a vocabulary spec like "E/2" or "E/2 P/1"."""
    symbols = []
    for part in spec.split():
        if "/" not in part:
            raise InputError(f"bad vocabulary item {part!r}; expected NAME/ARITY")
        name, _, arity_s = part.partition("/")
        try:
            arity = int(arity_s)
        except ValueError:
            raise InputError(f"bad arity in vocabulary item {part!r}") from None
        symbols.append((name, arity))
    return Vocabulary(tuple(symbols))


def parse_fos(text: str) -> tuple[Structure, bool]:
    """Parse the line-oriented structure format. Returns (structure, graph_flag).

    Strict: unknown symbols, arity mismatches, out-of-range elements, loops in
    graph mode, and missing headers are all fatal input errors."""
    vocab = None
    order = None
    graph = False
    tuples: list[tuple[str, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "vocab":
            if vocab is not None:
                raise InputError(f"line {lineno}: duplicate vocab line")
            vocab = parse_vocab_spec(" ".join(fields[1:]))
        elif fields[0] == "order":
            if vocab is None:
                raise InputError(f"line {lineno}: order before vocab")
            if order is not None:
                raise InputError(f"line {lineno}: duplicate order line")
            try:
                order = int(fields[1])
            except (IndexError, ValueError):
                raise InputError(f"line {lineno}: bad order line {line!r}") from None
        elif fields[0] == "graph":
            if order is None:
                raise InputError(f"line {lineno}: graph directive before order")
            if len(vocab.symbols) != 1 or vocab.symbols[0][1] != 2:
                raise InputError("graph directive requires a single binary symbol")
            graph = True
        else:
            if vocab is None or order is None:
                raise InputError(f"line {lineno}: tuple line before headers")
            name = fields[0]
            idx = vocab.index_of(name)
            arity = vocab.symbols[idx][1]
            if len(fields) - 1 != arity:
                raise InputError(
                    f"line {lineno}: {name} expects {arity} elements, got {len(fields) - 1}")
            try:
                tup = tuple(int(x) for x in fields[1:])
            except ValueError:
                raise InputError(f"line {lineno}: non-integer element in {line!r}") from None
            if any(not (0 <= e < order) for e in tup):
                raise InputError(f"line {lineno}: element out of range in {line!r}")
            tuples.append((name, tup))
    if vocab is None or order is None:
        raise InputError("structure file must contain vocab and order lines")

    tables = [set() for _ in vocab.symbols]
    for name, tup in tuples:
        idx = vocab.index_of(name)
        if graph:
            if tup[0] == tup[1]:
                raise InputError(f"loop {tup} not allowed in graph mode")
            tables[idx].add((tup[1], tup[0]))
        tables[idx].add(tup)
    return Structure(vocab, order, tables), graph


def format_fos(struct: Structure, graph: bool = False) -> str:
    lines = [f"vocab {struct.vocab.spec()}", f"order {struct.order}"]
    if graph:
        lines.append("graph")
    for idx, (name, _) in enumerate(struct.vocab.symbols):
        for tup in sorted(struct.tables[idx]):
            if graph and tup[0] > tup[1]:
                continue
            lines.append(name + " " + " ".join(map(str, tup)))
    return "\n".join(lines) + "\n"
