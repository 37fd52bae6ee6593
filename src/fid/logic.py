"""First-order formulas over a vocabulary plus equality.

AST with n-ary conjunction/disjunction (the synthesized matrices contain
combinatorially large disjunctions, and n-ary nodes keep the metric
computations linear), quantifier-rank/alternation/count metrics computed by
one depth-tracked traversal with polarity, one reader of the quantifier
prefix (`split_prefix`), one model checker, and the two quantifier-free
building blocks every synthesized formula is made of: the all-distinct
conjunction and the atomic-diagram formula of a tuple.

The model checker, `compile_bits`, is bit-sliced: it checks a formula on
thousands of same-order structures at once (the verification sweeps). One
walk at compile time checks the formula against the vocabulary and builds
its closures; each run only binds the structures and the free values.
`evaluate` and `compile_eval` run it on a one-structure slice.

Text format (prenex sentences only):

    sentence := ("EX" | "ALL") IDENT "." ... matrix
    matrix   := "&", "|", "!", "->", "(", ")", atoms NAME(v1,...,vl),
                v1 = v2, and the constants TRUE / FALSE

TRUE and FALSE serialize the empty conjunction/disjunction, which arise
naturally (a distinctness constraint over one variable, an atomic diagram
over a vocabulary with no unary symbols).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FormulaTooLarge, InputError
from .structures import Structure, Vocabulary

DEFAULT_NODE_CEILING = 10**7


@dataclass(frozen=True)
class Rel:
    sym: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ForAll:
    var: str
    body: "Formula"


Formula = Rel | Eq | Not | And | Or | Exists | ForAll

TRUE = And(())
FALSE = Or(())


def conj(parts) -> Formula:
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else And(parts)


def disj(parts) -> Formula:
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else Or(parts)


def implies(premise: Formula, conclusion: Formula) -> Formula:
    return Or((Not(premise), conclusion))


def exists_block(variables, body: Formula) -> Formula:
    for var in reversed(list(variables)):
        body = Exists(var, body)
    return body


def forall_block(variables, body: Formula) -> Formula:
    for var in reversed(list(variables)):
        body = ForAll(var, body)
    return body


def node_count(phi: Formula) -> int:
    stack, count = [phi], 0
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, (Exists, ForAll)):
            stack.append(node.body)
    return count


def guard_nodes(estimate: int, ceiling: int = DEFAULT_NODE_CEILING):
    if estimate > ceiling:
        raise FormulaTooLarge(
            f"formula would need about {estimate} nodes, ceiling is {ceiling}")


# ---------------------------------------------------------------------------
# Metrics: quantifier rank, alternation number, prefix class.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaMetrics:
    qr: int
    alt: int
    prefix_class: str
    is_bs: bool
    quantifiers: int
    existentials: int
    universals: int


_NEG = -1  # sentinel for "no nest string with this leading quantifier"


def _nest_info(phi: Formula, flipped: bool):
    """(qr, max alt of nest strings starting with an existential, same for
    universal, whether the empty string occurs, existentials, universals),
    without materializing the nest-string set. `flipped` tracks negation
    parity; the two counts are syntactic."""
    if isinstance(phi, (Rel, Eq)):
        return 0, _NEG, _NEG, True, 0, 0
    if isinstance(phi, Not):
        return _nest_info(phi.child, not flipped)
    if isinstance(phi, (And, Or)):
        if not phi.children:
            return 0, _NEG, _NEG, True, 0, 0  # constants behave like atoms
        qr = ex = al = 0
        a_ex = a_all = _NEG
        empty = False
        for child in phi.children:
            c_qr, c_ex, c_all, c_empty, c_exs, c_als = _nest_info(child, flipped)
            qr = max(qr, c_qr)
            a_ex = max(a_ex, c_ex)
            a_all = max(a_all, c_all)
            empty = empty or c_empty
            ex += c_exs
            al += c_als
        return qr, a_ex, a_all, empty, ex, al
    qr, c_ex, c_all, c_empty, ex, al = _nest_info(phi.body, flipped)
    acts_existential = isinstance(phi, Exists) != flipped
    same, other = (c_ex, c_all) if acts_existential else (c_all, c_ex)
    prepended = _NEG
    if same != _NEG:
        prepended = max(prepended, same)
    if other != _NEG:
        prepended = max(prepended, other + 1)
    if c_empty:
        prepended = max(prepended, 0)
    if isinstance(phi, Exists):
        ex += 1
    else:
        al += 1
    if acts_existential:
        return qr + 1, prepended, _NEG, False, ex, al
    return qr + 1, _NEG, prepended, False, ex, al


def split_prefix(phi: Formula):
    """(leading quantifier nodes, the formula below them)."""
    quants = []
    while isinstance(phi, (Exists, ForAll)):
        quants.append(phi)
        phi = phi.body
    return quants, phi


def metrics(phi: Formula) -> FormulaMetrics:
    """Quantifier rank, alternations and counts from one walk; the formula is
    prenex when every quantifier it holds is in its leading prefix."""
    qr, a_ex, a_all, _, ex, al = _nest_info(phi, False)
    quants, _ = split_prefix(phi)
    blocks = [kind for kind, _ in itertools.groupby(map(type, quants))]
    prenex = ex + al == len(quants)
    if not prenex:
        prefix = "non-prenex"
    elif not blocks:
        prefix = "Sigma_0"
    else:
        prefix = f"{'Sigma' if blocks[0] is Exists else 'Pi'}_{len(blocks)}"
    is_bs = prenex and (len(blocks) <= 1 or blocks == [Exists, ForAll])
    return FormulaMetrics(qr=qr, alt=max(a_ex, a_all, 0), prefix_class=prefix,
                          is_bs=is_bs, quantifiers=ex + al, existentials=ex,
                          universals=al)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def evaluate(struct: Structure, phi: Formula, env: dict[str, int] | None = None) -> bool:
    """Whether the structure satisfies the formula under `env`, the values
    of its free variables. Malformed formulas raise InputError, also in a
    branch that the truth value does not depend on."""
    env = env or {}
    check = compile_bits(phi, struct.vocab, tuple(env))
    return bool(check(bit_slices(struct.vocab, struct.order, (struct,)), *env.values()))


def compile_eval(phi: Formula, vocab: Vocabulary, free_order: tuple[str, ...] = ()):
    """Compile a formula into f(struct, *free_values) -> bool: `compile_bits`
    run on a one-structure slice, for checking one formula, with free
    variables, on many assignments of one structure."""
    check = compile_bits(phi, vocab, free_order)

    def call(struct: Structure, *free_values) -> bool:
        return bool(check(bit_slices(vocab, struct.order, (struct,)), *free_values))

    return call


# ---------------------------------------------------------------------------
# Bit-sliced evaluation: one formula on one or many structures of one order.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BitSlices:
    """Structures of one order, sliced by tuple: bit r of `atoms[s][tup]`
    is set iff structure r holds `tup` in symbol s. `full` has one bit per
    structure."""
    order: int
    full: int
    atoms: tuple[dict[tuple[int, ...], int], ...]


def bit_slices(vocab: Vocabulary, order: int, structs) -> BitSlices:
    """Slice a sequence of structures of the given order over `vocab`."""
    atoms = tuple({} for _ in vocab.symbols)
    for r, struct in enumerate(structs):
        if struct.order != order:
            raise InputError(
                f"expected structures of order {order}, got one of order {struct.order}")
        bit = 1 << r
        for slot, table in zip(atoms, struct.tables):
            for tup in table:
                slot[tup] = slot.get(tup, 0) | bit
    return BitSlices(order, (1 << len(structs)) - 1, atoms)


def compile_bits(phi: Formula, vocab: Vocabulary, free: tuple[str, ...] = ()):
    """Compile a formula into f(slices, *free_values) -> int, the set of
    sliced structures that satisfy it under the free-variable values given
    in the order of `free`, bit r for structure r.

    Tarskian semantics, equality built in, innermost binding wins. One
    depth-first walk at compile time builds the closure tree and raises
    InputError for an unknown symbol, a wrong arity or an unbound variable
    in the order it meets them, so a branch that a run would skip still
    fails. A run only binds the free values, the slices' atom tables and
    the order, and calls the root; runs share that binding, so one compiled
    check must not run in two threads at once.

    Each subformula is one int over all structures: atoms are looked up,
    connectives and quantifiers are bitwise. Every branch gets a care-set,
    the structures whose answer is still open, and returns its result
    within it. A conjunction or universal stops once the care-set empties;
    a disjunction or existential stops once its result covers the care-set.
    """
    arities = dict(vocab.symbols)
    sym_index = {name: i for i, (name, _) in enumerate(vocab.symbols)}
    # env[d] is the value of the free variable (d < len(free)) or of the
    # quantifier at depth d - len(free); `tables` and `universe` are the
    # current run's
    env = [0] * len(free)
    tables: tuple[dict[tuple[int, ...], int], ...] = ()
    universe = range(0)

    def slots(variables, slot_of):
        found = tuple(map(slot_of.get, variables))
        if None in found:
            raise InputError(f"unbound variable {variables[found.index(None)]!r}")
        return found

    def gen(node, slot_of, depth):
        if isinstance(node, Rel):
            if node.sym not in arities:
                raise InputError(f"formula uses unknown symbol {node.sym!r}")
            arity = arities[node.sym]
            if len(node.args) != arity:
                raise InputError(f"{node.sym} expects arity {arity}, got {len(node.args)}")
            s, args = sym_index[node.sym], slots(node.args, slot_of)
            if arity == 1:
                i, = args
                return lambda care: tables[s].get((env[i],), 0) & care
            if arity == 2:
                i, j = args
                return lambda care: tables[s].get((env[i], env[j]), 0) & care
            return lambda care: tables[s].get(tuple(map(env.__getitem__, args)), 0) & care
        if isinstance(node, Eq):
            i, j = slots((node.left, node.right), slot_of)
            return lambda care: care if env[i] == env[j] else 0
        if isinstance(node, Not):
            child = gen(node.child, slot_of, depth)
            return lambda care: care ^ child(care)
        if isinstance(node, (And, Or)):
            parts = [gen(c, slot_of, depth) for c in node.children]
            return (_all_of if isinstance(node, And) else _any_of)(parts)
        if depth == len(env):
            env.append(0)
        body = gen(node.body, {**slot_of, node.var: depth}, depth + 1)
        if isinstance(node, ForAll):
            def every(care):
                for e in universe:
                    env[depth] = e
                    care = body(care)
                    if not care:
                        break
                return care
            return every

        def some(care):
            out = 0
            for e in universe:
                env[depth] = e
                got = body(care)
                if got:
                    out |= got
                    care ^= got
                    if not care:
                        break
            return out
        return some

    root = gen(phi, {var: i for i, var in enumerate(free)}, len(free))

    def run(slices: BitSlices, *values) -> int:
        nonlocal tables, universe
        if len(values) != len(free):
            raise TypeError(f"expected {len(free)} free-variable values, got {len(values)}")
        env[:len(free)] = values
        tables, universe = slices.atoms, range(slices.order)
        return root(slices.full)

    return run


def _all_of(parts):
    def conjunction(care):
        for part in parts:
            care = part(care)
            if not care:
                break
        return care
    return conjunction


def _any_of(parts):
    def disjunction(care):
        out = 0
        for part in parts:
            got = part(care)
            if got:
                out |= got
                care ^= got
                if not care:
                    break
        return out
    return disjunction


# ---------------------------------------------------------------------------
# Building blocks.
# ---------------------------------------------------------------------------

def dist_formula(variables) -> Formula:
    """Pairwise-distinctness conjunction; empty (TRUE) for a single variable,
    a bare inequation for two."""
    variables = list(variables)
    if not variables:
        raise InputError("distinctness needs at least one variable")
    return conj(Not(Eq(a, b)) for a, b in itertools.combinations(variables, 2))


def iso_formula(struct: Structure, elements, variables=None) -> Formula:
    """Atomic diagram of a tuple of pairwise distinct elements: distinctness
    plus one (possibly negated) atom per symbol and per index map into the
    tuple. A structure with an assignment satisfies it exactly when the
    component-wise correspondence is a partial isomorphism."""
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise InputError("atomic diagram needs pairwise distinct elements")
    if variables is None:
        variables = [f"x{i + 1}" for i in range(len(elements))]
    variables = list(variables)
    if len(variables) != len(elements):
        raise InputError(f"atomic diagram of {len(elements)} elements needs as many "
                         f"variables, got {len(variables)}")
    parts: list[Formula] = [dist_formula(variables)]
    l = len(elements)
    for idx, (name, arity) in enumerate(struct.vocab.symbols):
        table = struct.tables[idx]
        for pick in itertools.product(range(l), repeat=arity):
            atom = Rel(name, tuple(variables[i] for i in pick))
            holds = tuple(elements[i] for i in pick) in table
            parts.append(atom if holds else Not(atom))
    return And(tuple(parts))


# ---------------------------------------------------------------------------
# Text format.
# ---------------------------------------------------------------------------

_PUNCT = ("->", "(", ")", "&", "|", "!", "=", ",", ".")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append("->")
            i += 2
            continue
        if ch in "()&|!=,.":
            tokens.append(ch)
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise InputError(f"unexpected character {ch!r} in formula")
    return tokens


class _Parser:
    def __init__(self, tokens, vocab: Vocabulary | None):
        self.tokens = tokens
        self.pos = 0
        self.vocab = vocab

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise InputError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def sentence(self) -> Formula:
        quants = []
        while self.peek() in ("EX", "ALL"):
            kind = self.take()
            var = self.ident()
            self.take(".")
            quants.append((kind, var))
        body = self.expr()
        if self.peek() is not None:
            raise InputError(f"trailing input starting at {self.peek()!r}")
        for kind, var in reversed(quants):
            body = Exists(var, body) if kind == "EX" else ForAll(var, body)
        return body

    def ident(self) -> str:
        tok = self.take()
        if tok in _PUNCT or tok in ("EX", "ALL", "TRUE", "FALSE") or not (
                tok[0].isalpha() or tok[0] == "_"):
            raise InputError(f"expected identifier, found {tok!r}")
        return tok

    def expr(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return implies(left, self.expr())
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() == "|":
            self.take()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        if tok == "TRUE":
            self.take()
            return TRUE
        if tok == "FALSE":
            self.take()
            return FALSE
        name = self.ident()
        if self.peek() == "(":
            self.take()
            args = [self.ident()]
            while self.peek() == ",":
                self.take()
                args.append(self.ident())
            self.take(")")
            if self.vocab is not None:
                idx = self.vocab.index_of(name)
                arity = self.vocab.symbols[idx][1]
                if arity != len(args):
                    raise InputError(
                        f"{name} expects {arity} arguments, got {len(args)}")
            return Rel(name, tuple(args))
        if self.peek() == "=":
            self.take()
            return Eq(name, self.ident())
        raise InputError(f"dangling identifier {name!r} in formula")


def parse_formula(text: str, vocab: Vocabulary | None = None) -> Formula:
    return _Parser(_tokenize(text), vocab).sentence()


def format_formula(phi: Formula) -> str:
    """Canonical text form: space-separated quantifier prefix, fully
    parenthesized matrix. Prenex sentences only (all synthesized formulas are)."""
    quants, matrix = split_prefix(phi)

    def fmt(node) -> str:
        if isinstance(node, Rel):
            return f"{node.sym}({','.join(node.args)})"
        if isinstance(node, Eq):
            return f"({node.left} = {node.right})"
        if isinstance(node, Not):
            return "!" + fmt(node.child)
        if isinstance(node, And):
            if not node.children:
                return "TRUE"
            return "(" + " & ".join(fmt(c) for c in node.children) + ")"
        if isinstance(node, Or):
            if not node.children:
                return "FALSE"
            return "(" + " | ".join(fmt(c) for c in node.children) + ")"
        raise InputError("only prenex formulas have a text form")

    prefix = [f"{'EX' if isinstance(q, Exists) else 'ALL'} {q.var} ." for q in quants]
    return " ".join(prefix + [fmt(matrix)])
