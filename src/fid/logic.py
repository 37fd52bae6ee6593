"""First-order formulas over a vocabulary plus equality.

AST with n-ary conjunction/disjunction (the synthesized matrices contain
combinatorially large disjunctions, and n-ary nodes keep the metric
computations linear), quantifier-rank/alternation/prefix metrics computed by
a depth-tracked traversal with polarity, a plain recursive model checker, a
compiled evaluator for one structure, a bit-sliced evaluator that checks a
sentence on thousands of same-order structures at once (the verification
sweeps), and the two quantifier-free building blocks every synthesized
formula is made of: the all-distinct conjunction and the atomic-diagram
formula of a tuple.

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


def free_vars(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Rel):
        return frozenset(phi.args)
    if isinstance(phi, Eq):
        return frozenset((phi.left, phi.right))
    if isinstance(phi, Not):
        return free_vars(phi.child)
    if isinstance(phi, (And, Or)):
        out = frozenset()
        for child in phi.children:
            out |= free_vars(child)
        return out
    return free_vars(phi.body) - {phi.var}


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
    """(qr, max alt of strings starting with an existential, same for
    universal, whether the empty string occurs), without materializing the
    nest-string set. `flipped` tracks negation parity."""
    if isinstance(phi, (Rel, Eq)):
        return 0, _NEG, _NEG, True
    if isinstance(phi, Not):
        qr, a_ex, a_all, empty = _nest_info(phi.child, not flipped)
        return qr, a_ex, a_all, empty
    if isinstance(phi, (And, Or)):
        if not phi.children:
            return 0, _NEG, _NEG, True  # constants behave like atoms
        qr = 0
        a_ex = a_all = _NEG
        empty = False
        for child in phi.children:
            c_qr, c_ex, c_all, c_empty = _nest_info(child, flipped)
            qr = max(qr, c_qr)
            a_ex = max(a_ex, c_ex)
            a_all = max(a_all, c_all)
            empty = empty or c_empty
        return qr, a_ex, a_all, empty
    qr, c_ex, c_all, c_empty = _nest_info(phi.body, flipped)
    acts_existential = isinstance(phi, Exists) != flipped
    same, other = (c_ex, c_all) if acts_existential else (c_all, c_ex)
    prepended = _NEG
    if same != _NEG:
        prepended = max(prepended, same)
    if other != _NEG:
        prepended = max(prepended, other + 1)
    if c_empty:
        prepended = max(prepended, 0)
    if acts_existential:
        return qr + 1, prepended, _NEG, False
    return qr + 1, _NEG, prepended, False


def _quantifier_counts(phi: Formula):
    if isinstance(phi, (Rel, Eq)):
        return 0, 0
    if isinstance(phi, Not):
        return _quantifier_counts(phi.child)
    if isinstance(phi, (And, Or)):
        ex = al = 0
        for child in phi.children:
            ce, ca = _quantifier_counts(child)
            ex += ce
            al += ca
        return ex, al
    ce, ca = _quantifier_counts(phi.body)
    return (ce + 1, ca) if isinstance(phi, Exists) else (ce, ca + 1)


def _prefix_blocks(phi: Formula):
    """Quantifier blocks of a prenex formula, or None if not prenex."""
    blocks: list[list] = []
    cur = phi
    while isinstance(cur, (Exists, ForAll)):
        kind = type(cur)
        if blocks and blocks[-1][0] is kind:
            blocks[-1][1] += 1
        else:
            blocks.append([kind, 1])
        cur = cur.body
    ex, al = _quantifier_counts(cur)
    if ex or al:
        return None
    return blocks


def metrics(phi: Formula) -> FormulaMetrics:
    qr, a_ex, a_all, empty = _nest_info(phi, False)
    alt = max(a_ex, a_all, 0 if empty else _NEG)
    alt = max(alt, 0)
    ex, al = _quantifier_counts(phi)
    blocks = _prefix_blocks(phi)
    if blocks is None:
        prefix = "non-prenex"
        is_bs = False
    elif not blocks:
        prefix = "Sigma_0"
        is_bs = True
    else:
        first = "Sigma" if blocks[0][0] is Exists else "Pi"
        prefix = f"{first}_{len(blocks)}"
        kinds = [b[0] for b in blocks]
        is_bs = len(kinds) == 1 or kinds == [Exists, ForAll]
    return FormulaMetrics(qr=qr, alt=alt, prefix_class=prefix, is_bs=is_bs,
                          quantifiers=ex + al, existentials=ex, universals=al)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def evaluate(struct: Structure, phi: Formula, env: dict[str, int] | None = None) -> bool:
    """Tarskian semantics; equality built in; innermost binding wins."""
    env = dict(env) if env else {}
    sym_index = {name: (i, arity) for i, (name, arity) in enumerate(struct.vocab.symbols)}

    def run(node, env):
        if isinstance(node, Rel):
            try:
                idx, arity = sym_index[node.sym]
            except KeyError:
                raise InputError(f"formula uses unknown symbol {node.sym!r}") from None
            if len(node.args) != arity:
                raise InputError(f"{node.sym} expects arity {arity}, got {len(node.args)}")
            try:
                tup = tuple(env[a] for a in node.args)
            except KeyError as exc:
                raise InputError(f"unbound variable {exc.args[0]!r}") from None
            return tup in struct.tables[idx]
        if isinstance(node, Eq):
            try:
                return env[node.left] == env[node.right]
            except KeyError as exc:
                raise InputError(f"unbound variable {exc.args[0]!r}") from None
        if isinstance(node, Not):
            return not run(node.child, env)
        if isinstance(node, And):
            return all(run(c, env) for c in node.children)
        if isinstance(node, Or):
            return any(run(c, env) for c in node.children)
        saved = env.get(node.var, _MISSING)
        result = None
        if isinstance(node, Exists):
            result = False
            for e in struct.universe():
                env[node.var] = e
                if run(node.body, env):
                    result = True
                    break
        else:
            result = True
            for e in struct.universe():
                env[node.var] = e
                if not run(node.body, env):
                    result = False
                    break
        if saved is _MISSING:
            env.pop(node.var, None)
        else:
            env[node.var] = saved
        return result

    return run(phi, env)


_MISSING = object()


def _check_formula(phi: Formula, vocab: Vocabulary, free: tuple[str, ...] = ()):
    """Raise InputError for an unknown symbol, a wrong arity or an unbound
    variable anywhere in the formula, in the order a depth-first walk meets
    them. The compiled evaluators check up front, so a branch that a run
    would skip still fails."""
    arities = dict(vocab.symbols)

    def walk(node, bound):
        if isinstance(node, Rel):
            if node.sym not in arities:
                raise InputError(f"formula uses unknown symbol {node.sym!r}")
            arity = arities[node.sym]
            if len(node.args) != arity:
                raise InputError(f"{node.sym} expects arity {arity}, got {len(node.args)}")
            variables = node.args
        elif isinstance(node, Eq):
            variables = (node.left, node.right)
        elif isinstance(node, Not):
            return walk(node.child, bound)
        elif isinstance(node, (And, Or)):
            for child in node.children:
                walk(child, bound)
            return
        else:
            return walk(node.body, bound | {node.var})
        for var in variables:
            if var not in bound:
                raise InputError(f"unbound variable {var!r}")

    walk(phi, frozenset(free))


def compile_eval(phi: Formula, vocab: Vocabulary, free_order: tuple[str, ...] = ()):
    """Compile a formula into a Python callable f(struct, *free_values).

    Semantically identical to `evaluate`; for checking one formula, with
    free variables, on many assignments of one structure.
    """
    _check_formula(phi, vocab, free_order)
    sym_index = {name: i for i, (name, _) in enumerate(vocab.symbols)}
    counter = itertools.count()

    def gen(node, names):
        if isinstance(node, Rel):
            args = [names[a] for a in node.args]
            inner = ", ".join(args) + ("," if len(args) == 1 else "")
            return f"(({inner}) in T{sym_index[node.sym]})"
        if isinstance(node, Eq):
            return f"({names[node.left]} == {names[node.right]})"
        if isinstance(node, Not):
            return f"(not {gen(node.child, names)})"
        if isinstance(node, And):
            if not node.children:
                return "True"
            return "(" + " and ".join(gen(c, names) for c in node.children) + ")"
        if isinstance(node, Or):
            if not node.children:
                return "False"
            return "(" + " or ".join(gen(c, names) for c in node.children) + ")"
        fresh = f"v{next(counter)}"
        inner = gen(node.body, {**names, node.var: fresh})
        head = "any" if isinstance(node, Exists) else "all"
        return f"{head}({inner} for {fresh} in U)"

    free_names = {var: f"f{i}" for i, var in enumerate(free_order)}
    expr = gen(phi, dict(free_names))
    params = ["U"] + [f"T{i}" for i in range(len(vocab.symbols))] + \
        [free_names[v] for v in free_order]
    source = f"lambda {', '.join(params)}: {expr}"
    fn = eval(compile(source, "<formula>", "eval"))  # noqa: S307 - our own codegen

    def call(struct: Structure, *free_values):
        return fn(range(struct.order), *struct.tables, *free_values)

    return call


# ---------------------------------------------------------------------------
# Bit-sliced evaluation: one sentence on many structures of one order.
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


def compile_bits(phi: Formula, vocab: Vocabulary):
    """Compile a sentence into f(slices) -> int, the set of sliced
    structures that satisfy it, bit r for structure r.

    Bit r agrees with `evaluate(structs[r], phi)`. Each subformula is one
    int over all structures: atoms are looked up, connectives and
    quantifiers are bitwise. Every branch gets a care-set, the structures
    whose answer is still open, and returns its result within it. A
    conjunction or universal stops once the care-set empties; a
    disjunction or existential stops once its result covers the care-set.
    """
    _check_formula(phi, vocab)
    sym_index = {name: i for i, (name, _) in enumerate(vocab.symbols)}

    def run(slices: BitSlices) -> int:
        universe = range(slices.order)
        env: list[int] = []   # env[d] is the value of the quantifier at depth d

        def bind(depth, e, body):
            def instance(care):
                env[depth] = e
                return body(care)
            return instance

        def gen(node, slot_of, depth):
            if isinstance(node, Rel):
                atoms = slices.atoms[sym_index[node.sym]]
                slots = tuple(slot_of[a] for a in node.args)
                if len(slots) == 1:
                    i, = slots
                    return lambda care: atoms.get((env[i],), 0) & care
                if len(slots) == 2:
                    i, j = slots
                    return lambda care: atoms.get((env[i], env[j]), 0) & care
                return lambda care: atoms.get(tuple(map(env.__getitem__, slots)), 0) & care
            if isinstance(node, Eq):
                i, j = slot_of[node.left], slot_of[node.right]
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
            parts = [bind(depth, e, body) for e in universe]
            return (_all_of if isinstance(node, ForAll) else _any_of)(parts)

        return gen(phi, {}, 0)(slices.full)

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
    assert len(variables) == len(elements)
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
    prefix = []
    cur = phi
    while isinstance(cur, (Exists, ForAll)):
        prefix.append(f"{'EX' if isinstance(cur, Exists) else 'ALL'} {cur.var} .")
        cur = cur.body
    blocks = _prefix_blocks(phi)
    if blocks is None:
        raise InputError("only prenex formulas have a text form")

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
        raise InputError("quantifier inside matrix")

    matrix = fmt(cur)
    return " ".join(prefix + [matrix]) if prefix else matrix
