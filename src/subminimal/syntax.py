"""Formula ASTs, the surface grammar, and compilation to kernel opcodes.

Two surface languages share one node hierarchy. The propositional
language has atoms, T, &, |, -> and the primitive negation ~; it has
no falsum. The modal language adds F, [] and [n], and there ~x is
sugar for x -> F, so parsed modal formulas never contain a Neg node.

Operator precedence, loosest first: <-> (desugared while parsing),
-> (right associative), |, &, then the prefix operators. The printer
emits the minimal parenthesisation, so parse(show(f), language) is f
for every formula of the language, while show(parse(s)) == s only for
inputs that already use minimal parentheses and no <->.

The parser reads the tokens of one regex findall by precedence
climbing (Dijkstra's shunting yard, Pratt's binding powers) in one
loop over one explicit stack: each pending infix operator, prefix
operator and open parenthesis is an entry, so text of any depth
parses. It lists each node as it builds it, operands first, left
first, which is the order of subformulas with repeats, so a parse
hands its walk over: the list without repeats is kept on the root,
unless the root already keeps code, and the first walk of a parsed
formula costs nothing.

There is one object per distinct formula (hash-consing, Filliatre and
Conchon 2006): each node class builds its nodes through the
constructor of its shape (_nullary, _unary for Var and the prefix
operators, _binary), which takes exactly the class's fields, in order
and not by keyword (Top(), Var("p"), Neg(a), And(a, b)), so any other
call raises TypeError. It looks the node up in _NODES by its class and
its fields and returns the live node if there is one, else fills a new
node through the class's own member descriptors, bound once per class.
The table holds weak references, so a node's entry goes when reference
counting frees the node; the one Top and the one Bot are kept alive
(_TOP, _BOT), and the parser reads them. So == is identity, and a
node hashes by identity too (object.__hash__), in C, and every memo
over formulas keys by the node itself. A set or dict of formulas
therefore iterates in an order that follows where the nodes live in
memory, which can change from run to run, so nothing shown or named
follows it: a Sigma is put in one order once, at entry (_ordered), and
every answer, witness and error over it follows that order. copy.copy
and copy.deepcopy return the node itself, and a pickle holds the
operands and loads through the constructor, as the node. The table
takes no lock: two threads building the same new formula at once may
make two objects of it, so build formulas from one thread.

Every other walk but show's is a loop over ``subformulas``, the
subformulas of a formula, children first, left operand first, each
node once, handed over by the parse or built on one explicit stack
(_postorder) on first use, and kept on the node, so a formula of any
depth compiles and evaluates. A subformula closure from
filtration.close_sigma is a _Closed: the walk of the formulas it
closes, taken from their kept orders, so that Sigma is its own walk
(_walk) and none is built for it. show is the one walk that visits a
shared node once per occurrence, because its text appears once per
occurrence: one left-to-right pass over an explicit stack, so a
formula of any depth prints in time linear in its text. repr and
pickle are the standard library's and still recurse.

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


# bypasses the frozen dataclass __setattr__ to fill the code slot
_setattr = object.__setattr__


class _Ref(weakref.ref):
    """A weak reference to a node that knows the node's key in _NODES."""

    __slots__ = ("key",)


# every live node under its key, its class and its fields
_NODES: dict[tuple, _Ref] = {}


def _drop(ref: _Ref) -> None:
    """The callback of a dying node's reference: its entry goes, unless
    a lookup that met the dead reference first gave the key a new node."""
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


# the constructors of the three node shapes, by the number of fields:
# each gives the live node of the class and fields if there is one,
# else a new node filled through the class's own member descriptors,
# their __set__ bound once per class (a lookup per call cost more than
# the string-keyed object.__setattr__)


def _nullary(cls: type) -> Callable:
    def __new__(cls, /):
        key = (cls,)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            ref = _NODES[key] = _Ref(node, _drop)
            ref.key = key
        return node

    return __new__


def _unary(cls: type) -> Callable:
    fill = getattr(cls, cls.__match_args__[0]).__set__

    def __new__(cls, field, /):
        key = (cls, field)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            fill(node, field)
            ref = _NODES[key] = _Ref(node, _drop)
            ref.key = key
        return node

    return __new__


def _binary(cls: type) -> Callable:
    fill_left, fill_right = cls.left.__set__, cls.right.__set__

    def __new__(cls, left, right, /):
        key = (cls, left, right)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            fill_left(node, left)
            fill_right(node, right)
            ref = _NODES[key] = _Ref(node, _drop)
            ref.key = key
        return node

    return __new__


class Formula:
    """Base class for all formula nodes; holds the code slot."""

    __slots__ = ("_code", "__weakref__")

    def __copy__(self) -> Formula:
        return self

    def __deepcopy__(self, memo: dict) -> Formula:
        return self

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self) -> str:
        return show(self)


def _node(shape: Callable) -> Callable:
    """A frozen slotted dataclass whose nodes the constructor of its
    shape interns, with identity for == and hash."""

    def make(cls: type) -> type:
        cls = dataclass(frozen=True, slots=True, init=False, eq=False)(cls)
        new = shape(cls)
        # a wrong call's TypeError names the class
        new.__qualname__ = f"{cls.__name__}.__new__"
        cls.__new__ = staticmethod(new)
        return cls

    return make


@_node(_unary)
class Var(Formula):
    name: str


@_node(_nullary)
class Top(Formula):
    pass


@_node(_nullary)
class Bot(Formula):
    pass


# the one Top and the one Bot, kept for the life of the process: a
# nullary node would otherwise die with each formula that holds it and
# be built again by the next parse
_TOP = Top()
_BOT = Bot()


@_node(_binary)
class And(Formula):
    left: Formula
    right: Formula


@_node(_binary)
class Or(Formula):
    left: Formula
    right: Formula


@_node(_binary)
class Imp(Formula):
    left: Formula
    right: Formula


@_node(_unary)
class Neg(Formula):
    sub: Formula


@_node(_unary)
class Box(Formula):
    sub: Formula


@_node(_unary)
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


def _postorder(formulas: Iterable[Formula], seen: Collection[Formula] = ()) -> list[Formula]:
    """The nodes of the formulas in turn that seen lacks, in the order
    of subformulas; anything not a formula is a leaf."""
    order: list[Formula] = []
    entered: set[Formula] = set()
    stack = list(formulas)[::-1]
    while stack:
        f = stack.pop()
        if f is _LEAVE:
            order.append(stack.pop())
        elif f not in entered and f not in seen:
            entered.add(f)
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
    if kept.__class__ is tuple:
        return kept[0] + (formula,)
    if formula.__class__ not in _KINDS:
        # anything else, a node class among them, is a leaf
        return (formula,)
    order = tuple(_postorder((formula,)))
    _setattr(formula, "_code", (order[:-1], None, None, None))
    return order


def _first(order: Iterable[Formula], failing: Callable[[Formula], bool]) -> dict[Formula, tuple[Formula, ...]]:
    """For each node of order, a walk, keyed by node: (node,) for its
    first node in entry order that failing holds for, else (); a node's
    first is itself, else its left operand's, else its right operand's."""
    first: dict[Formula, tuple[Formula, ...]] = {}
    for f in order:
        below = (first[c] for c in _children(f))
        first[f] = (f,) if failing(f) else next(filter(None, below), ())
    return first


def _fold(order: Iterable[Formula], ops: dict, value: dict) -> dict:
    """value, with each node of order keyed by node: ops[kind] of the
    values of a connective's operands, of the node itself for any other
    kind, and ops[None] of the node for a kind that ops lacks."""
    for f in order:
        op = ops.get(f.__class__)
        if op is None:
            value[f] = ops[None](f)
        elif f.__class__ in _BINARY:
            value[f] = op(value[f.left], value[f.right])
        else:
            value[f] = op(value[f.sub]) if f.__class__ in _UNARY else op(f)
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
# (its own power for the right-associative <-> and ->), its node (None
# for <->, which the parser expands)
_INFIX = {"<->": (0, 0, None), "->": (1, 1, Imp), "|": (2, 3, Or), "&": (3, 4, And)}
# any other token after an operand: a power below every infix one, and
# the floor of an open parenthesis and of the stack's bottom
_OTHER = (-1, None, None)
# the entries a token pushes where an operand is due, by language: an
# open parenthesis, and prefix operators, whose floor is above every
# power and whose node is None for the modal ~ (x -> F)
_PREFIX = {
    "prop": {"(": _OTHER, "~": (4, None, Neg)},
    "modal": {"(": _OTHER, "~": (4, None, None), "[]": (4, None, Box), "[n]": (4, None, BBox)},
}


def _error(text: str, index: int, message: str) -> ParseError:
    """ParseError at the index-th token, the end of the text past the last."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return ParseError(message, starts[index] if index < len(starts) else len(text))


def parse(text: str, language: str = "prop") -> Formula:
    """Parse surface syntax into a formula.

    ``language`` is "prop" or "modal". Biconditionals are expanded into
    conjoined implications; in the modal language ~x becomes x -> F.
    The result keeps the walk the parse listed, the order subformulas
    gives, unless it already keeps code.

    Precedence climbing in one loop over the tokens and one stack of
    (floor, left, node) entries: an infix operator waiting for its
    right operand, a prefix operator (no left), an open parenthesis and
    the bottom. After each operand f, the next token's power pops every
    entry whose floor exceeds it, each building its node over f; an
    infix operator then pushes, a ")" closes its parenthesis, and the
    end closes the bottom. So the parse takes text of any depth.
    """
    if language not in ("prop", "modal"):
        raise ValueError(f"unknown language: {language!r}")
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:
        raise _error(text, tokens.index(""), "unexpected character")
    tokens.append("")  # the end
    prefix, modal = _PREFIX[language], language == "modal"
    stack = [_OTHER]
    made: list[Formula] = []  # each node as it is built: the walk with repeats
    f = None  # the operand just read, None where one is due
    for i, tok in enumerate(tokens):
        if f is None:
            if "a" <= tok < "{":  # an atom: "{" follows "z"
                f = Var(tok)
            elif tok in prefix:
                stack.append(prefix[tok])
                continue
            elif tok == "T":
                f = _TOP
            elif tok == "F" and modal:
                f = _BOT
            elif tok == "F" or tok == "[]" or tok == "[n]":
                what = "falsum" if tok == "F" else "modal operator"
                raise _error(text, i, f"{what} outside the modal language")
            else:
                raise _error(text, i, "expected a formula")
            made.append(f)
            continue
        power, floor, node = _INFIX.get(tok, _OTHER)
        while stack[-1][0] > power:
            _, left, op = stack.pop()
            if left is None and op is None:
                made.append(_BOT)
                f = Imp(f, _BOT)
            elif left is None:
                f = op(f)
            elif op is None:
                made += (Imp(left, f), Imp(f, left))
                f = And(made[-2], made[-1])
            else:
                f = op(left, f)
            made.append(f)
        if power >= 0:
            stack.append((floor, f, node))
            f = None
        elif len(stack) == 1:
            if tok:
                raise _error(text, i, "trailing input")
        elif tok != ")":
            raise _error(text, i, "expected closing parenthesis")
        else:
            stack.pop()
    if getattr(f, "_code", None).__class__ is not tuple:
        # made ends with the root, and no node precedes itself
        made.pop()
        _setattr(f, "_code", (tuple(dict.fromkeys(made)), None, None, None))
    return f


# --------------------------------------------------------------------------
# structural helpers


class _Closed(tuple):
    """A subformula-closed tuple of distinct formulas, each after its
    operands: its own walk (_walk). close_sigma builds one, and
    _ordered one from a closed set. The property is structural, so it
    pickles and copies as itself."""

    __slots__ = ()


def _ordered(formulas: Iterable[Formula]) -> tuple[Formula, ...]:
    """Sigma in its one order, each formula once: a _Closed as it is; a
    set or frozenset, whose iteration order follows where its nodes
    live, as the walk of its maximal members (those that are no
    member's operand) taken by show, a _Closed when that walk holds only
    members, else the members in walk order; any other collection in
    the order given. show reads the maximal members alone, so a set
    costs one walk."""
    if formulas.__class__ is _Closed:
        return formulas
    if not isinstance(formulas, (set, frozenset)):
        return tuple(dict.fromkeys(formulas))
    operands = {c for f in formulas for c in _children(f)}
    top = [f for f in formulas if f not in operands]
    if len(top) > 1:
        top.sort(key=show)
    walk = _postorder(top)
    return _Closed(walk) if len(walk) == len(formulas) else tuple(f for f in walk if f in formulas)


def _walk(sigma: Sequence[Formula]) -> Sequence[Formula]:
    """The nodes of Sigma, each object once, children first: Sigma
    itself when it is a _Closed, else _postorder's walk of it."""
    return sigma if sigma.__class__ is _Closed else _postorder(sigma)


def _require_closed(sigma: Sequence[Formula], walk: Collection[Formula]) -> None:
    """Raise unless sigma, distinct formulas, is subformula-closed, that
    is, holds every node of walk, _walk(sigma), so has as many. The
    error names the first member in sigma's order that misses a direct
    subformula, and the first it misses."""
    if len(walk) == len(sigma):
        return
    members = set(sigma)
    f, sub = next((f, c) for f in sigma for c in _children(f) if c not in members)
    raise ValueError(f"sigma is not subformula-closed: {show(f)} needs {show(sub)}")


def variables(formula: Formula) -> tuple[str, ...]:
    """Variable names occurring in the formula, sorted."""
    return tuple(sorted({f.name for f in subformulas(formula) if f.__class__ is Var}))


def depth(formula: Formula) -> int:
    """Connective nesting depth; atoms and constants have depth 0."""
    d: dict[Formula, int] = {}
    for f in subformulas(formula):
        d[f] = max([d[c] + 1 for c in _children(f)], default=0)
    return d[formula]


def is_instance_of(formula: Formula, scheme: Formula) -> bool:
    """Whether the formula arises from the scheme by substituting for
    the scheme's variables: matched parents first, a scheme node met
    at several places, a variable by its name, must meet equal
    formulas at all of them."""
    if scheme.__class__ is not formula.__class__ and scheme.__class__ is not Var:
        return False
    at, env = {scheme: formula}, {}
    for s in reversed(subformulas(scheme)):
        f = at[s]
        if s.__class__ is Var:
            if env.setdefault(s.name, f) is not f:
                return False
        elif s.__class__ is not f.__class__:
            return False
        for c, g in zip(_children(s), _children(f)):
            if at.setdefault(c, g) is not g:
                return False
    return True


def godel_translate(formula: Formula) -> Formula:
    """Box translation of a propositional formula into the modal language.

    Atoms are boxed, conjunction and disjunction pass through,
    implications are boxed, and the primitive negation becomes [n].
    """
    order = subformulas(formula)

    def fail(f: Formula) -> None:
        for bad in _first(order, lambda g: g.__class__ not in _PROP)[formula]:
            raise ValueError(f"not a propositional formula: {show(bad)}")

    ops = {Var: Box, Top: lambda f: Top(), And: And, Or: Or, Imp: lambda a, b: Box(Imp(a, b)), Neg: BBox}
    return _fold(order, {**ops, None: fail}, {})[formula]


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
    if kept.__class__ is tuple and kept[2 + modal] is not None:
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
    slots: dict[Formula, int] = {}
    code: list[int] = []
    opcodes = _OPCODES[modal]
    order = subformulas(formula)
    for f in order:
        kind = f.__class__
        if kind is Var and f.name in index:
            code += (OP_VAR, index[f.name], 0)
        elif kind not in opcodes:
            for bad in _first(order, lambda g: g.__class__ not in opcodes and not (
                    g.__class__ is Var and g.name in index))[formula]:
                if bad.__class__ is Var:
                    raise ValueError(f"variable not in the compilation order: {bad.name}")
                if bad.__class__ not in _KINDS:
                    raise TypeError(f"not a formula: {bad!r}")
                raise ValueError(_REFUSED[bad.__class__, modal])
        elif kind in _BINARY:
            code += (opcodes[kind], slots[f.left], slots[f.right])
        else:
            code += (opcodes[kind], slots[f.sub], 0) if kind in _UNARY else (opcodes[kind], 0, 0)
        slots[f] = len(slots)
    return tuple(code)

