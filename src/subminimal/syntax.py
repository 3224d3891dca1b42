"""Formula ASTs, the surface grammar, and compilation to kernel opcodes.

Two surface languages share one node hierarchy. The propositional
language has atoms, T, &, |, -> and the primitive negation ~; it has
no falsum. The modal language adds F, [] and [n], and there ~x is
sugar for x -> F, so parsed modal formulas never contain a Neg node.

Operator precedence, loosest first: <-> (desugared while parsing),
-> (right associative), |, &, then the prefix operators. The printer
emits the minimal parenthesisation, so parse(show(f)) == f for every
formula within the parser's nesting limit, while show(parse(s)) == s
only for inputs that already use minimal parentheses and no <->.

The parser reads the tokens of one regex findall by precedence
climbing. It alone recurses on formula structure: two frames per
parenthesis, one per prefix operator and per right-nested -> or <->
(& and | chains are read in a loop).

There is one object per distinct formula (hash-consing): each node
class builds its nodes, from their fields in order and not by keyword
(Var("p"), And(a, b)), through one __new__, which looks the node up in
_NODES by its class and name, or its class and the ids of its
operands, and returns the live node if there is one. The table holds
weak references, so a node's entry goes when reference counting frees
the node, and a new node takes its hash at construction, the value the
plain dataclass hash gives, so sets and dicts of formulas iterate as
they would with it. So == is identity and a lookup costs one hash;
copy.copy and copy.deepcopy return the node itself, and a pickle holds
the operands and loads through the constructor, as the node. The table
takes no lock: two threads building the same new formula at once may
make two objects of it, so build formulas from one thread.

Every other walk but show's is a loop over ``subformulas``, the
subformulas of a formula, children first, left operand first, each
node once, built on one explicit stack (_postorder) on first use and
kept on the node, so a formula of any depth compiles and evaluates. A
subformula closure from filtration.close_sigma (_Closure) keeps the
walk of the formulas it closes, taken from their kept orders, and
every walk of that Sigma (_walk) reads it instead of building one.
show is the one walk that visits a shared node once per occurrence,
because its text appears once per occurrence: one left-to-right pass
over an explicit stack, so a formula of any depth prints in time
linear in its text. repr and pickle are the standard library's and
still recurse.

The slot ``_code`` keeps the subformula order without the node itself
(no reference cycle), the sorted variable names and the prop and modal
kernel code, each filled on the first compilation that succeeds in its
language. It is no field: it stays out of repr and pickles.

Kernel code has one instruction per subformula, in the order of
subformulas (kernels.ops), so a subformula that occurs twice is
evaluated once and no node is hashed.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence

from subminimal.kernels.ops import (
    OP_AND,
    OP_BBOX,
    OP_BOT,
    OP_BOX,
    OP_IMP,
    OP_NEG,
    OP_OR,
    OP_TOP,
    OP_VAR,
)


class ParseError(ValueError):
    """Raised on malformed input, with the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# bypasses the frozen dataclass __setattr__ to fill the slots
_setattr = object.__setattr__


class _Ref(weakref.ref):
    """A weak reference to a node that knows the node's key in _NODES."""

    __slots__ = ("key",)


# every live node under its key: its class and name, or its class and
# the ids of its operands, which it keeps alive while it lives
_NODES: dict[tuple, _Ref] = {}


def _drop(ref: _Ref) -> None:
    """The callback of a dying node's reference: its entry goes, unless
    a lookup that met the dead reference first gave the key a new node."""
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


class Formula:
    """Base class for all formula nodes; holds the hash and code slots."""

    __slots__ = ("_hash", "_code", "__weakref__")

    def __new__(cls, *fields: object) -> Formula:
        key = (cls, *fields) if cls is Var else (cls, *map(id, fields))
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            # the dataclass hash value, so sets and dicts iterate as with it
            _setattr(node, "_hash", hash(fields))
            for name, value in zip(cls.__match_args__, fields):
                _setattr(node, name, value)
            ref = _NODES[key] = _Ref(node, _drop)
            ref.key = key
        return node

    def __hash__(self) -> int:
        return self._hash

    def __copy__(self) -> Formula:
        return self

    def __deepcopy__(self, memo: dict) -> Formula:
        return self

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self) -> str:
        return show(self)


def _node(cls):
    """A frozen slotted dataclass whose nodes Formula.__new__ interns,
    with Formula's hash and identity for ==."""
    return dataclass(frozen=True, slots=True, init=False, eq=False)(cls)


@_node
class Var(Formula):
    name: str


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Neg(Formula):
    sub: Formula


@_node
class Box(Formula):
    sub: Formula


@_node
class BBox(Formula):
    sub: Formula


_BINARY = (And, Or, Imp)
_UNARY = (Neg, Box, BBox)
_KINDS = frozenset(_BINARY + _UNARY + (Var, Top, Bot))
_PROP = frozenset((Var, Top, And, Or, Imp, Neg))


def _children(formula: Formula) -> tuple[Formula, ...]:
    kind = formula.__class__
    if kind in _BINARY:
        return (formula.left, formula.right)
    if kind in _UNARY:
        return (formula.sub,)
    return ()


# pushed above a node whose children are on the stack: the node is left next
_LEAVE = object()


def _postorder(formulas: Iterable[Formula], seen: Collection[int] = ()) -> list[Formula]:
    """The nodes of the formulas in turn whose ids seen lacks, in the
    order of subformulas; anything not a formula is a leaf."""
    order: list[Formula] = []
    entered: set[int] = set()
    stack = list(formulas)[::-1]
    while stack:
        f = stack.pop()
        if f is _LEAVE:
            order.append(stack.pop())
        elif (i := id(f)) not in entered and i not in seen:
            entered.add(i)
            kind = f.__class__
            if kind in _BINARY:
                stack += (f, _LEAVE, f.right, f.left)
            elif kind in _UNARY:
                stack += (f, _LEAVE, f.sub)
            else:
                order.append(f)
    return order


def subformulas(formula: Formula) -> tuple[Formula, ...]:
    """The distinct subformula objects of a formula, children first,
    left operand first, the formula last (see the module docstring)."""
    kept = getattr(formula, "_code", None)
    if kept is not None:
        return kept[0] + (formula,)
    order = tuple(_postorder((formula,)))
    if formula.__class__ in _KINDS:
        _setattr(formula, "_code", (order[:-1], None, None, None))
    return order


def _first(order: Iterable[Formula], failing: Callable[[Formula], bool]) -> dict[int, tuple[Formula, ...]]:
    """For each node of order, a walk, keyed by id: (node,) for its
    first node in entry order that failing holds for, else (); a node's
    first is itself, else its left operand's, else its right operand's."""
    first: dict[int, tuple[Formula, ...]] = {}
    for f in order:
        below = (first[id(c)] for c in _children(f))
        first[id(f)] = (f,) if failing(f) else next(filter(None, below), ())
    return first


def _fold(order: Iterable[Formula], ops: dict, value: dict) -> dict:
    """value, with each node of order keyed by id: ops[kind] of the
    values of a connective's operands, of the node itself for any other
    kind, and ops[None] of the node for a kind that ops lacks."""
    for f in order:
        op = ops.get(f.__class__)
        if op is None:
            value[id(f)] = ops[None](f)
        elif f.__class__ in _BINARY:
            value[id(f)] = op(value[id(f.left)], value[id(f.right)])
        else:
            value[id(f)] = op(value[id(f.sub)]) if f.__class__ in _UNARY else op(f)
    return value


# binding power of each kind of node, the loosest 0
_PREC = {Var: 4, Top: 4, Bot: 4, Neg: 3, Box: 3, BBox: 3, And: 2, Or: 1, Imp: 0}
_SIGN = {Top: "T", Bot: "F", Neg: "~", Box: "[]", BBox: "[n]", And: " & ", Or: " | ", Imp: " -> "}


def show(formula: Formula) -> str:
    """Render a formula in the surface syntax with minimal parentheses,
    in one left-to-right pass over an explicit stack of texts and
    operands. An operand rides in a 1-tuple, so that no operand, a str
    among them, is taken for text: anything not a formula raises."""
    out: list[str] = []
    stack: list = [(formula,)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        f = item[0]
        kind = f.__class__
        if kind is Var:
            out.append(f.name)
        elif kind in _BINARY:
            level = _PREC[kind]
            # an operand in parentheses when it binds looser than its place,
            # or as loose where that is strict: left of ->, right of & and |
            a = _PREC.get(f.left.__class__, 0) < level + (kind is Imp)
            b = _PREC.get(f.right.__class__, 0) < level + (kind is not Imp)
            out.append("(" * a)
            stack += (")" * b, (f.right,), ")" * a + _SIGN[kind] + "(" * b, (f.left,))
        elif kind in _UNARY:
            p = _PREC.get(f.sub.__class__, 0) < 3
            out.append(_SIGN[kind] + "(" * p)
            stack += (")" * p, (f.sub,))
        elif kind is Top or kind is Bot:
            out.append(_SIGN[kind])
        else:
            raise TypeError(f"not a formula: {f!r}")
    return "".join(out)


# --------------------------------------------------------------------------
# parsing

# group 1 holds the tokens of the grammar; any other run of word
# characters, or other non-space character, reads as the empty string
_TOKEN_RE = re.compile(r"(<->|->|\[n\]|\[\]|T\b|F\b|[a-z][a-zA-Z0-9_]*|[&|~()])|\w+|\S")

# infix operator: its binding power, the floor of its right operand
# (its own power for the right-associative <-> and ->), its node
_INFIX = {"->": (1, 1, Imp), "|": (2, 3, Or), "&": (3, 4, And)}
_INFIX["<->"] = (0, 0, lambda left, right: And(Imp(left, right), Imp(right, left)))


class _Parser:
    """Precedence climbing over the tokens, kept reversed behind an
    empty end marker so that the next token is tokens[-1]. It builds
    the nodes and keeps nothing of them: the result's walk is built by
    subformulas when first asked for."""

    __slots__ = ("text", "tokens", "count", "modal")

    def __init__(self, text: str, tokens: list[str], modal: bool):
        self.text, self.count, self.modal = text, len(tokens), modal
        tokens.append("")
        tokens.reverse()
        self.tokens = tokens

    def fail(self, message: str, taken: bool = False) -> ParseError:
        """The error at the next token, or at the one just taken."""
        return _error(self.text, self.count + 1 - len(self.tokens) - taken, message)

    def expr(self, floor: int) -> Formula:
        left = self.unary()
        tokens = self.tokens
        while True:
            op = _INFIX.get(tokens[-1])
            if op is None or op[0] < floor:
                return left
            tokens.pop()
            left = op[2](left, self.expr(op[1]))

    def unary(self) -> Formula:
        tok = self.tokens.pop()
        if tok == "(":
            inner = self.expr(0)
            if self.tokens.pop() != ")":
                raise self.fail("expected closing parenthesis", True)
            return inner
        if "a" <= tok < "{":  # an atom: "{" follows "z"
            return Var(tok)
        if tok == "~":
            sub = self.unary()
            return Imp(sub, Bot()) if self.modal else Neg(sub)
        if tok == "T":
            return Top()
        if tok == "F" or tok == "[]" or tok == "[n]":
            if not self.modal:
                what = "falsum" if tok == "F" else "modal operator"
                raise self.fail(f"{what} outside the modal language", True)
            return Bot() if tok == "F" else (Box if tok == "[]" else BBox)(self.unary())
        raise self.fail("expected a formula", True)


def _error(text: str, index: int, message: str) -> ParseError:
    """ParseError at the index-th token, the end of the text past the last."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return ParseError(message, starts[index] if index < len(starts) else len(text))


def parse(text: str, language: str = "prop") -> Formula:
    """Parse surface syntax into a formula.

    ``language`` is "prop" or "modal". Biconditionals are expanded into
    conjoined implications; in the modal language ~x becomes x -> F.
    """
    if language not in ("prop", "modal"):
        raise ValueError(f"unknown language: {language!r}")
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:
        raise _error(text, tokens.index(""), "unexpected character")
    parser = _Parser(text, tokens, language == "modal")
    formula = parser.expr(0)
    if parser.tokens[-1]:
        raise parser.fail("trailing input")
    return formula


# --------------------------------------------------------------------------
# structural helpers


def subformula_closure(formula: Formula) -> frozenset[Formula]:
    """All subformulas of the formula, itself included."""
    return frozenset(subformulas(formula))


class _Closure(frozenset):
    """A subformula-closed set that keeps ``walk``: the nodes of the
    formulas it was closed from, each object once, children first, the
    subformulas orders of those formulas in turn. Its members are among
    them, so a walk of the set reads it (_walk). It iterates as the
    plain frozenset of the same construction, and pickles and copies as
    a plain frozenset, leaving the walk behind."""

    __slots__ = ("walk",)

    def __reduce__(self) -> tuple:
        return frozenset, (tuple(self),)


def _walk(formulas: Iterable[Formula]) -> Sequence[Formula]:
    """The nodes of the formulas, each object once, children first: a
    closure's kept walk, else _postorder's."""
    return formulas.walk if formulas.__class__ is _Closure else _postorder(formulas)


def _frozen(formulas: Iterable[Formula]) -> frozenset[Formula]:
    """The formulas as a frozenset: one already, such as a closure with
    its walk, is not copied."""
    return formulas if isinstance(formulas, frozenset) else frozenset(formulas)


def _require_closed(sigma: frozenset[Formula], walk: Sequence[Formula]) -> None:
    """Raise unless sigma is subformula-closed, that is, holds every
    node of walk, _walk(sigma). The error names the least member by
    show that misses a direct subformula, and the first it misses, so
    it reads the same under every hash seed."""
    if all(map(sigma.__contains__, walk)):
        return
    f = min((f for f in sigma if not all(map(sigma.__contains__, _children(f)))), key=show)
    sub = next(c for c in _children(f) if c not in sigma)
    raise ValueError(f"sigma is not subformula-closed: {show(f)} needs {show(sub)}")


def variables(formula: Formula) -> tuple[str, ...]:
    """Variable names occurring in the formula, sorted."""
    return tuple(sorted({f.name for f in subformulas(formula) if f.__class__ is Var}))


def depth(formula: Formula) -> int:
    """Connective nesting depth; atoms and constants have depth 0."""
    d: dict[int, int] = {}
    for f in subformulas(formula):
        d[id(f)] = max([d[id(c)] + 1 for c in _children(f)], default=0)
    return d[id(formula)]


def is_instance_of(formula: Formula, scheme: Formula) -> bool:
    """Whether the formula arises from the scheme by substituting for
    the scheme's variables: matched parents first, a scheme node met
    at several places, a variable by its name, must meet equal
    formulas at all of them."""
    if scheme.__class__ is not formula.__class__ and scheme.__class__ is not Var:
        return False
    at, env = {id(scheme): formula}, {}
    for s in reversed(subformulas(scheme)):
        f = at[id(s)]
        if s.__class__ is Var:
            if env.setdefault(s.name, f) is not f:
                return False
        elif s.__class__ is not f.__class__:
            return False
        for c, g in zip(_children(s), _children(f)):
            if at.setdefault(id(c), g) is not g:
                return False
    return True


def godel_translate(formula: Formula) -> Formula:
    """Box translation of a propositional formula into the modal language.

    Atoms are boxed, conjunction and disjunction pass through,
    implications are boxed, and the primitive negation becomes [n].
    """
    order = subformulas(formula)

    def fail(f: Formula) -> None:
        for bad in _first(order, lambda g: g.__class__ not in _PROP)[id(formula)]:
            raise ValueError(f"not a propositional formula: {show(bad)}")

    ops = {Var: Box, Top: lambda f: Top(), And: And, Or: Or, Imp: lambda a, b: Box(Imp(a, b)), Neg: BBox}
    return _fold(order, {**ops, None: fail}, {})[id(formula)]


# --------------------------------------------------------------------------
# the logic chain


@dataclass(frozen=True)
class Logic:
    """A named logic in the chain, identified by its defining axiom."""

    name: str
    order: int
    axiom: Formula


AXIOM_N = parse("(p <-> q) -> (~p <-> ~q)")
AXIOM_NEF = parse("(p & ~p) -> ~q")
AXIOM_COPC = parse("(p -> q) -> (~q -> ~p)")
AXIOM_MPC = parse("(p -> ~p) -> ~p")

LOGICS: dict[str, Logic] = {
    "n": Logic("n", 0, AXIOM_N),
    "nef": Logic("nef", 1, AXIOM_NEF),
    "copc": Logic("copc", 2, AXIOM_COPC),
    "mpc": Logic("mpc", 3, AXIOM_MPC),
}


def chain_axioms(logic: Logic) -> tuple[Formula, ...]:
    """Axioms of the logic and of every weaker logic in the chain."""
    return tuple(
        l.axiom
        for l in sorted(LOGICS.values(), key=lambda l: l.order)
        if l.order <= logic.order
    )


# --------------------------------------------------------------------------
# kernel compilation


def compile_prop(formula: Formula, var_order: Sequence[str]) -> tuple[int, ...]:
    """Compile a propositional formula to value-numbered kernel code
    (see kernels.ops).

    Variables are numbered by their position in var_order; a variable
    outside it, or a modal node, raises ValueError.
    """
    return _compile(formula, {name: i for i, name in enumerate(var_order)}, False)


def compile_modal(formula: Formula, var_order: Sequence[str]) -> tuple[int, ...]:
    """Compile a modal formula to value-numbered kernel code."""
    return _compile(formula, {name: i for i, name in enumerate(var_order)}, True)


def compiled(formula: Formula, language: str = "prop") -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The sorted variable names of a formula and its kernel code over
    them, as compile_prop or compile_modal (``language`` "prop" or
    "modal") gives it, with the same errors: one compilation over
    variables(formula), kept on the node, see the module docstring."""
    if language not in ("prop", "modal"):
        raise ValueError(f"unknown language: {language!r}")
    modal = language == "modal"
    kept = getattr(formula, "_code", None)
    if kept is not None and kept[2 + modal] is not None:
        return kept[1], kept[2 + modal]
    # a node with code gets here only in the language it fails to compile in
    names = variables(formula)
    code = _compile(formula, {name: i for i, name in enumerate(names)}, modal)
    order = formula._code[0]  # kept by variables' subformulas
    if _SPECIFIC.isdisjoint(code[::3]):
        kept = order, names, code, code
    else:
        kept = (order, names, None, code) if modal else (order, names, code, None)
    _setattr(formula, "_code", kept)
    return names, code


# the opcodes only one of the two compilations emits
_SPECIFIC = frozenset((OP_NEG, OP_BOT, OP_BOX, OP_BBOX))


# the language error of each node kind a compilation refuses, by
# whether it is modal
_REFUSED = {
    (Neg, True): "primitive negation in a modal compilation",
    (Bot, False): "falsum in a propositional compilation",
    (Box, False): "box in a propositional compilation",
    (BBox, False): "second modality in a propositional compilation",
}
# the opcode of each kind but Var that a compilation takes, by whether it is modal
_OPS = {And: OP_AND, Or: OP_OR, Imp: OP_IMP, Neg: OP_NEG, Box: OP_BOX, BBox: OP_BBOX}
_OPS.update({Top: OP_TOP, Bot: OP_BOT})
_OPCODES = {m: {k: op for k, op in _OPS.items() if (k, m) not in _REFUSED} for m in (False, True)}


def _compile(formula: Formula, index: dict[str, int], modal: bool) -> tuple[int, ...]:
    """Value-numbered code of the formula: one instruction per
    subformula, in the order of subformulas, so a node's slot is its
    position there; distinct nodes are distinct formulas, so no two
    instructions are equal. Variables are numbered by ``index``; a name
    outside it raises ValueError. A failure raises the error of the
    first failing node in entry order, as a compiler checking nodes
    before their operands meets it."""
    slots: dict[int, int] = {}
    code: list[int] = []
    opcodes = _OPCODES[modal]
    order = subformulas(formula)
    for f in order:
        kind = f.__class__
        if kind is Var and f.name in index:
            code += (OP_VAR, index[f.name], 0)
        elif kind not in opcodes:
            for bad in _first(order, lambda g: g.__class__ not in opcodes and not (
                    g.__class__ is Var and g.name in index))[id(formula)]:
                if bad.__class__ is Var:
                    raise ValueError(f"variable not in the compilation order: {bad.name}")
                if bad.__class__ not in _KINDS:
                    raise TypeError(f"not a formula: {bad!r}")
                raise ValueError(_REFUSED[bad.__class__, modal])
        elif kind in _BINARY:
            code += (opcodes[kind], slots[id(f.left)], slots[id(f.right)])
        else:
            code += (opcodes[kind], slots[id(f.sub)], 0) if kind in _UNARY else (opcodes[kind], 0, 0)
        slots[id(f)] = len(slots)
    return tuple(code)

